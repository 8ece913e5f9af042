package main

// Failure-path stderr contract: the -cache-dir counter line is part of
// janus-bench's observable surface and must be emitted even when a run
// dies partway, so operators can see what the failed run actually did.
// The test drives the real binary, since the flush logic lives in main.

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
