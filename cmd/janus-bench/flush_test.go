package main

// Failure-path stderr contract: the -cache-dir counter line and the
// -campaign stats line are part of janus-bench's observable surface
// and must be emitted even when a run dies partway, so operators can
// see what the failed run actually did. These tests drive the real
// binary, since the flush logic lives in main.
//
// The campaign failure is manufactured with -campaign-plant: a planted
// mis-classification guarantees a divergence, so the run exits nonzero
// on a deterministic path that still accumulated stats.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBench compiles the real binary once per test binary run.
var benchBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "janus-bench-test")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	benchBin = filepath.Join(dir, "janus-bench")
	out, err := exec.Command("go", "build", "-o", benchBin, ".").CombinedOutput()
	if err != nil {
		panic("building janus-bench: " + err.Error() + "\n" + string(out))
	}
	os.Exit(m.Run())
}

// runBench runs the binary and returns stdout, stderr and the exit code.
func runBench(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(benchBin, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), code
}

// TestCacheCounterLineOnFailedRun: a render-mode run that dies through
// the fail path with a cache attached (here: an unparsable -inject
// spec) must still print the artcache counter line to stderr.
func TestCacheCounterLineOnFailedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the real binary; skipped in -short")
	}
	_, stderr, code := runBench(t,
		"-cache-dir", t.TempDir(),
		"-inject", "no-such-point",
	)
	if code == 0 {
		t.Fatal("an unknown injection point should have failed the run")
	}
	if !strings.Contains(stderr, "janus-bench: artcache:") {
		t.Fatalf("failed run swallowed the cache counter line; stderr:\n%s", stderr)
	}
	if !strings.Contains(stderr, "no-such-point") {
		t.Fatalf("stderr lacks the underlying error:\n%s", stderr)
	}
}

// TestCampaignStatsLineOnFailedRun: a campaign that exits nonzero (a
// planted divergence) still prints its stats line to stdout and the
// cache counter line to stderr.
func TestCampaignStatsLineOnFailedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the real binary; skipped in -short")
	}
	stdout, stderr, code := runBench(t,
		"-campaign", t.TempDir(),
		"-campaign-plant",
		"-campaign-secs", "60", // stop-on-divergence ends it far sooner
		"-cache-dir", t.TempDir(),
	)
	if code == 0 {
		t.Fatalf("planted campaign must exit nonzero; stdout:\n%s\nstderr:\n%s", stdout, stderr)
	}
	if !strings.Contains(stdout, "campaign: iters=") {
		t.Fatalf("failing campaign swallowed its stats line; stdout:\n%s", stdout)
	}
	if !strings.Contains(stdout, "divergences=") || strings.Contains(stdout, "divergences=0") {
		t.Fatalf("planted campaign reported no divergences; stdout:\n%s", stdout)
	}
	if !strings.Contains(stderr, "janus-bench: artcache:") {
		t.Fatalf("failing campaign swallowed the cache counter line; stderr:\n%s", stderr)
	}
}
