package workloads

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateIdents = flag.Bool("update", false, "rewrite testdata/registry-idents.golden from fresh builds")

const identsGolden = "testdata/registry-idents.golden"

// TestRegistryIdents pins every registry build's identity: for each
// benchmark, input and optimisation level (and the math library) its
// name, Fingerprint and size. An assembler or section-layout change
// that moves one byte of one build shows here, by name.
func TestRegistryIdents(t *testing.T) {
	memo := NewMemo()
	var sb strings.Builder
	for _, name := range Names() {
		for _, in := range []Input{Train, Ref} {
			for _, opt := range []OptLevel{O2, O3, O3AVX} {
				exe, _, err := memo.Build(name, in, opt)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&sb, "%s %s %s %s %d\n", name, in, opt, exe.Fingerprint(), exe.Size())
			}
		}
	}
	lib := MathLib()
	fmt.Fprintf(&sb, "%s %s %d\n", lib.Name, lib.Fingerprint(), len(lib.Code))
	if *updateIdents {
		if err := os.WriteFile(identsGolden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(identsGolden)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(sb.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d identity lines, golden has %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("identity moved:\n got %s\nwant %s", got[i], wantLines[i])
		}
	}
}
