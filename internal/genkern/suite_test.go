package genkern

import (
	"os"
	"strings"
	"testing"

	"janus/internal/workloads"
)

// TestDefaultSuiteUnchangedByGenerator is the golden-fixture guard:
// the generator's presence (this package being linked and its tests
// running) must not change the default benchmark suite, and the golden
// janus-bench output must contain no generated rows. Generated kernels
// live only in the fuzzer's corpus and testdata fixtures, never in the
// workload registry.
func TestDefaultSuiteUnchangedByGenerator(t *testing.T) {
	names := workloads.Names()
	if len(names) != 25 {
		t.Fatalf("default registry has %d benchmarks, want 25: %v", len(names), names)
	}
	for _, name := range names {
		if strings.HasPrefix(name, "gen/") {
			t.Fatalf("generated benchmark %q present in the default registry", name)
		}
	}
	gold, err := os.ReadFile("../harness/testdata/janus-bench.golden")
	if err != nil {
		t.Fatalf("golden fixture: %v", err)
	}
	if strings.Contains(string(gold), "gen/") {
		t.Fatal("golden janus-bench fixture contains generated-corpus rows")
	}
}
