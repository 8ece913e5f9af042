package genkern

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// -genkern.shape replays one shape-vector genome (printed by campaign
// and minimiser repro commands) through the full differential oracle;
// -genkern.seed names its input data (default 1).
var shapeFlag = flag.String("genkern.shape", "", "replay one genome-hex shape through the differential oracle")

// TestShapeRepro is the replay entry point campaign repro commands
// name. Without -genkern.shape it is a no-op.
func TestShapeRepro(t *testing.T) {
	if *shapeFlag == "" {
		t.Skip("no -genkern.shape given")
	}
	sh, err := ParseShapeHex(*shapeFlag)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(1)
	if *seedFlag >= 0 {
		seed = uint64(*seedFlag)
	}
	rep, err := DiffShape(sh, seed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, lv := range rep.Loops {
		t.Logf("loop %d %-13s class=%v profiled=%v observed=%v selected=%v cov=%.3f",
			lv.ID, lv.Truth.Kind, lv.Class, lv.DepProfiled, lv.ObservedDep, lv.Selected, lv.Coverage)
	}
	t.Logf("selected=%d missed=%d", rep.Selected, rep.MissedPar)
}

// TestGraduatedRegressions replays every graduated campaign fixture
// under testdata/regressions through the full differential oracle.
// Each fixture is a shape on which a campaign once demonstrated a
// divergence; replaying it green under tier-1 pins that the bug class
// it found stays fixed (for planted-oracle finds: that the unplanted
// pipeline handles the shape soundly).
func TestGraduatedRegressions(t *testing.T) {
	matches, err := filepath.Glob(filepath.FromSlash("testdata/regressions/*.shape"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no graduated regression fixtures found (testdata/regressions/*.shape)")
	}
	for _, path := range matches {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			shape, seed, err := ParseRegression(data)
			if err != nil {
				t.Fatal(err)
			}
			if err := shape.Validate(); err != nil {
				t.Fatalf("fixture shape invalid: %v", err)
			}
			rep, err := DiffShape(shape, seed, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Loops) == 0 {
				t.Fatal("fixture kernel produced no analysed loops")
			}
		})
	}
}
