package genkern

import (
	"os"
	"strings"
	"testing"

	"janus/internal/workloads"
)

// TestDefaultSuiteUnchangedByGenerator is the golden-fixture guard:
// the generator's presence (this package being linked and its tests
// running, campaigns included) must not change the default benchmark
// suite, and the golden janus-bench output must contain no generated
// rows. Generated kernels live only in campaign corpus directories and
// testdata fixtures, never in the workload registry.
func TestDefaultSuiteUnchangedByGenerator(t *testing.T) {
	before := workloads.Names()
	if len(before) != 25 {
		t.Fatalf("default registry has %d benchmarks, want 25: %v", len(before), before)
	}
	for _, name := range before {
		if strings.HasPrefix(name, "gen/") {
			t.Fatalf("generated benchmark %q present in the default registry", name)
		}
	}
	if _, err := RunCampaign(CampaignConfig{Dir: t.TempDir(), Seed: 3, MaxIters: 8}); err != nil {
		t.Fatal(err)
	}
	after := workloads.Names()
	if strings.Join(after, ",") != strings.Join(before, ",") {
		t.Fatalf("campaign changed the workload registry: %v -> %v", before, after)
	}
	gold, err := os.ReadFile("../harness/testdata/janus-bench.golden")
	if err != nil {
		t.Fatalf("golden fixture: %v", err)
	}
	if strings.Contains(string(gold), "gen/") {
		t.Fatal("golden janus-bench fixture contains generated-corpus rows")
	}
}
