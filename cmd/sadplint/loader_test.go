package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module under t.TempDir for loader tests.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestModulePathErrors(t *testing.T) {
	if _, err := modulePath(t.TempDir()); err == nil {
		t.Error("missing go.mod should error")
	}
	root := writeModule(t, map[string]string{"go.mod": "go 1.22\n"})
	if _, err := modulePath(root); err == nil || !strings.Contains(err.Error(), "no module declaration") {
		t.Errorf("go.mod without module line: got %v", err)
	}
	root = writeModule(t, map[string]string{"go.mod": "module  example.com/m \n\ngo 1.22\n"})
	if mod, err := modulePath(root); err != nil || mod != "example.com/m" {
		t.Errorf("modulePath = %q, %v", mod, err)
	}
}

func TestLoaderSkipsAndGroups(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":                 "module example.com/m\n",
		"main.go":                "package main\nfunc main() {}\n",
		"main_test.go":           "package main\nbroken {{{", // _test.go files are never parsed
		"internal/a/a.go":        "// Package a.\npackage a\nfunc A() int { return 1 }\n",
		"internal/a/a2.go":       "package a\nfunc A2() int { return A() }\n",
		"testdata/bad.go":        "not go at all",
		"internal/.hid/h.go":     "also not go",
		"internal/_skip/s.go":    "also not go",
		"internal/a/vendor/v.go": "also not go",
	})
	l, err := newLoader(root)
	if err != nil {
		t.Fatalf("newLoader: %v", err)
	}
	if l.module != "example.com/m" {
		t.Errorf("module = %q", l.module)
	}
	wantPkgs := map[string]string{
		"example.com/m":            ".",
		"example.com/m/internal/a": "internal/a",
	}
	if len(l.pkgs) != len(wantPkgs) {
		t.Errorf("loaded %d packages, want %d: %v", len(l.pkgs), len(wantPkgs), l.pkgs)
	}
	for ip, rel := range wantPkgs {
		p := l.pkgs[ip]
		if p == nil {
			t.Errorf("package %q not loaded", ip)
			continue
		}
		if p.relDir != rel {
			t.Errorf("package %q relDir = %q, want %q", ip, p.relDir, rel)
		}
		if p.tpkg == nil || p.info == nil {
			t.Errorf("package %q not type-checked", ip)
		}
	}
	if p := l.pkgs["example.com/m/internal/a"]; p != nil && len(p.files) != 2 {
		t.Errorf("internal/a grouped %d files, want 2", len(p.files))
	}
}

func TestLoaderParseError(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module example.com/m\n",
		"bad.go": "package main\nfunc {",
	})
	if _, err := newLoader(root); err == nil {
		t.Error("syntactically broken non-test file should fail loading")
	}
}

// TestImportFallback proves unknown imports degrade to complete placeholder
// packages instead of aborting the check.
func TestImportFallback(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module example.com/m\n",
		"m.go":   "package m\nimport \"no.such.host/dep/thing\"\nvar X = thing.Y\n",
	})
	l, err := newLoader(root)
	if err != nil {
		t.Fatalf("newLoader: %v", err)
	}
	tp, err := l.importPkg("no.such.host/dep/thing")
	if err != nil || tp == nil {
		t.Fatalf("importPkg fallback: %v", err)
	}
	if tp.Name() != "thing" || !tp.Complete() {
		t.Errorf("placeholder package = name %q complete %v", tp.Name(), tp.Complete())
	}
	if again, _ := l.importPkg("no.such.host/dep/thing"); again != tp {
		t.Error("fallback packages should be cached and identity-stable")
	}
}

func TestMatchPatterns(t *testing.T) {
	cases := []struct {
		relDir, pattern string
		want            bool
	}{
		{"internal/geom", "./...", true},
		{".", "./...", true},
		{".", ".", true},
		{"internal/geom", "./internal/...", true},
		{"internal", "./internal/...", true},
		{"internal/geom", "./internal/geom", true},
		{"internal/geom", "internal/geom", true},
		{"internal/geometry", "./internal/geom", false},
		{"internal/geometry", "./internal/geom/...", false},
		{"cmd/tool", "./internal/...", false},
	}
	for _, c := range cases {
		p := &lintPkg{relDir: c.relDir}
		if got := p.match(c.pattern); got != c.want {
			t.Errorf("match(relDir=%q, %q) = %v, want %v", c.relDir, c.pattern, got, c.want)
		}
	}
}

// TestDirectiveParsing covers the lint:allow grammar edge cases on a
// synthetic module: missing justification, unknown rule, same-line and
// line-above placement, and the rule that directive findings cannot be
// suppressed by other directives.
func TestDirectiveParsing(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module example.com/m\n",
		"internal/x/x.go": `// Package x exercises directive parsing.
package x

import "os"

func SameLine() string {
	return os.Getenv("A") //lint:allow getenv test: same-line directive
}

func LineAbove() string {
	//lint:allow getenv test: line-above directive
	return os.Getenv("B")
}

func NoJustification() string {
	return os.Getenv("C") //lint:allow getenv
}

func UnknownRule() string {
	return os.Getenv("D") //lint:allow bogusrule totally justified
}

func BareDirective() string {
	return os.Getenv("E") //lint:allow
}
`,
	})
	l, err := newLoader(root)
	if err != nil {
		t.Fatalf("newLoader: %v", err)
	}
	var lines []string
	for _, f := range lintModule(l, []string{"./..."}) {
		lines = append(lines, f.String())
	}
	out := strings.Join(lines, "\n")
	for _, w := range []string{
		"x.go:16:24: [directive] lint:allow needs a rule name and a justification",
		"x.go:16:9: [getenv]",
		"x.go:20:24: [directive] lint:allow names unknown rule \"bogusrule\"",
		"x.go:20:9: [getenv]",
		"x.go:24:24: [directive] lint:allow needs a rule name and a justification",
		"x.go:24:9: [getenv]",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("missing %q in findings:\n%s", w, out)
		}
	}
	for _, d := range []string{"x.go:7", "x.go:12"} {
		if strings.Contains(out, d) {
			t.Errorf("directive failed to suppress finding at %s:\n%s", d, out)
		}
	}
}
