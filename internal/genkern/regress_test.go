package genkern

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -genkern.shape replays one shape-vector genome (printed by the repro
// line of every shape-built kernel's failure) through the full
// differential oracle; -genkern.seed names its input data (default 1).
var shapeFlag = flag.String("genkern.shape", "", "replay one genome-hex shape through the differential oracle")

// TestShapeRepro is the replay entry point shape repro commands name.
// Without -genkern.shape it is a no-op.
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

// plantedCaught is the failure text of a planted mis-classification
// that reached an engine and diverged from native.
const plantedCaught = "PLANTED BUG CAUGHT"

// regression is one parsed testdata/regressions/*.shape fixture.
type regression struct {
	shape Shape
	seed  uint64
	// failure is the text of the fixture's "# failure:" line: the
	// oracle failure the shape was recorded with.
	failure string
}

// parseRegression parses a regression fixture: '#'-prefixed comment
// lines (one of them may be "# failure: <text>"), then "seed <n>" and
// "shape <hex>" lines.
func parseRegression(data []byte) (regression, error) {
	var (
		r         regression
		haveShape bool
	)
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "# failure:"):
			r.failure = strings.TrimSpace(strings.TrimPrefix(line, "# failure:"))
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "seed "):
			if _, err := fmt.Sscanf(line, "seed %d", &r.seed); err != nil {
				return r, fmt.Errorf("regression fixture: %v", err)
			}
		case strings.HasPrefix(line, "shape "):
			sh, err := ParseShapeHex(strings.TrimPrefix(line, "shape "))
			if err != nil {
				return r, err
			}
			r.shape, haveShape = sh, true
		default:
			return r, fmt.Errorf("regression fixture: bad line %q", line)
		}
	}
	if !haveShape {
		return r, errors.New("regression fixture carries no shape line")
	}
	return r, nil
}

// TestGraduatedRegressions replays every fixture under
// testdata/regressions through the full differential oracle. Each
// fixture is a shape on which the oracle once failed; replaying it
// green pins that the bug class it found stays fixed. A fixture
// recorded under the planted mis-classification must also still catch
// the plant: armed, it fails with the recorded text; unarmed, the
// shipped pipeline handles the shape soundly.
func TestGraduatedRegressions(t *testing.T) {
	matches, err := filepath.Glob(filepath.FromSlash("testdata/regressions/*.shape"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no regression fixtures found (testdata/regressions/*.shape)")
	}
	for _, path := range matches {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			r, err := parseRegression(data)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.shape.Validate(); err != nil {
				t.Fatalf("fixture shape invalid: %v", err)
			}
			rep, err := DiffShape(r.shape, r.seed, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Loops) == 0 {
				t.Fatal("fixture kernel produced no analysed loops")
			}
			if !strings.Contains(r.failure, plantedCaught) {
				return
			}
			if _, err := DiffShape(r.shape, r.seed, Options{PlantDOALL: true}); err == nil {
				t.Fatal("the fixture no longer catches the planted mis-classification")
			} else if !strings.Contains(err.Error(), plantedCaught) {
				t.Fatalf("the planted replay fails for another reason: %v", err)
			}
		})
	}
}
