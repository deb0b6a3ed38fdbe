package netlist

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzNetlistParse holds the text format's parser to two properties: Read
// never panics, and a netlist it reads survives the round trip — Write
// then Read returns an equal netlist, and writing that again gives the
// same bytes.
func FuzzNetlistParse(f *testing.F) {
	for _, seed := range []string{
		// a fixed-pin net and a blockage
		"name t\ngrid 16 16 3\nblockage 1 2 2 5 4\nnet n0 (1,1,0) -> (9,9,0)\n",
		// a multi-candidate pin, a comment and a blank line
		"# comment\n\nname m\ngrid 8 8 2\nnet a (0,0,0)|(1,0,1) -> (7,7,1)|(6,7,0)|(7,6,0)\n",
		// malformed lines
		"grid 4 4\n",
		"grid x 4 4\n",
		"net a (0,0,0) (1,1,0)\n",
		"net a (0,0) -> (1,1,0)\n",
		"blockage 0 1 2\n",
		"via 1 2 3\n",
		"grid 4 4 1\nnet a (9,9,0) -> (1,1,0)\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		nl, err := Read(strings.NewReader(text))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := nl.Write(&first); err != nil {
			t.Fatal(err)
		}
		back, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Read of Write's output: %v\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(back, nl) {
			t.Fatalf("round trip changed the netlist:\nread  %+v\nagain %+v", nl, back)
		}
		var second bytes.Buffer
		if err := back.Write(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("second Write differs from the first:\n%s---\n%s", first.Bytes(), second.Bytes())
		}
	})
}
