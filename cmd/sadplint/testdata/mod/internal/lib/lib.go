// Package lib seeds violations of the panic, getenv, and maprange rules.
package lib

import (
	"fmt"
	"io"
	"os"
	"sort"
)

// Explode trips the panic rule: library code must return errors.
func Explode() {
	panic("boom")
}

// NewCounter is constructor validation: its panic is allowed by name.
func NewCounter(n int) int {
	if n < 0 {
		panic("lib: negative count")
	}
	return n
}

// Keys trips the maprange rule: the slice is never sorted here.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// SortedKeys is the clean idiom: collect, then sort.
func SortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Dump trips the maprange rule by writing straight from the loop.
func Dump(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

// Debug trips the getenv rule: a hidden behavior switch.
func Debug() bool {
	return os.Getenv("FIXTURE_DEBUG") != ""
}

// DebugAllowed is the documented escape hatch.
func DebugAllowed() bool {
	return os.Getenv("FIXTURE_OK") != "" //lint:allow getenv fixture: documented in README
}

// Malformed has a directive without a justification: the directive itself
// is a finding, and it suppresses nothing.
func Malformed() bool {
	return os.Getenv("FIXTURE_BAD") != "" //lint:allow getenv
}

// Log trips the stderr rule: library diagnostics must go through the
// observability recorder, not straight to the process stderr.
func Log(msg string) {
	fmt.Fprintln(os.Stderr, msg)
}

// LogAllowed is the documented escape hatch for the stderr rule.
func LogAllowed(msg string) {
	fmt.Fprintln(os.Stderr, msg) //lint:allow stderr fixture: documented fallback writer
}

// Pick trips the taint maprange rule the old syntactic pass missed: the
// chosen key escapes the loop and reaches ordered output after it.
func Pick(w io.Writer, m map[string]int) {
	var picked string
	for k := range m {
		if len(k) > 3 {
			picked = k
		}
	}
	fmt.Fprintln(w, picked)
}

// Derived trips the taint rule through an intermediate variable.
func Derived(m map[string]int) []string {
	var out []string
	for k := range m {
		k2 := k + "!"
		out = append(out, k2)
	}
	return out
}

// Sum stays silent under the taint rule: numeric accumulation is
// order-independent even though it ranges a map.
func Sum(w io.Writer, m map[string]int) {
	total := 0
	for _, v := range m {
		total += v
	}
	fmt.Fprintf(w, "%d\n", total)
}

// Tally stays silent: per-entry output is a constant, so iteration order
// cannot show in the bytes written.
func Tally(w io.Writer, m map[string]int) {
	for range m {
		fmt.Fprint(w, ".")
	}
}

// EmitSorted stays silent: the sort kills the taint before emission.
func EmitSorted(w io.Writer, m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintln(w, k)
	}
}

// Unknown has a directive naming a rule that does not exist: the
// directive is a finding and suppresses nothing.
func Unknown() bool {
	return os.Getenv("FIXTURE_UNK") != "" //lint:allow nosuchrule rules must come from the catalogue
}

// BranchSort trips the taint rule: the sort runs on one branch only, so
// the keys reach the output unsorted on the other.
func BranchSort(w io.Writer, m map[string]int, c bool) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	if c {
		sort.Strings(keys)
	}
	fmt.Fprintln(w, keys)
}

// Retaint trips the taint rule: the sort comes before the map keys do.
func Retaint(w io.Writer, m map[string]int) {
	var keys []string
	sort.Strings(keys)
	for k := range m {
		keys = append(keys, k)
	}
	fmt.Fprintln(w, keys)
}

// Reassigned stays silent: the picked key is overwritten with a constant
// before it is emitted.
func Reassigned(w io.Writer, m map[string]int) {
	var picked string
	for k := range m {
		picked = k
	}
	picked = "none"
	fmt.Fprintln(w, picked)
}

// LoopSort stays silent: each emission sees keys as the previous
// iteration's sort left them.
func LoopSort(w io.Writer, m map[string]int) {
	var keys []string
	for i := 0; i < 2; i++ {
		fmt.Fprintln(w, keys)
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
	}
}
