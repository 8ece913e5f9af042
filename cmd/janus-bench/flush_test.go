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

// TestNoSuchExperimentFails: a selection naming no figure or table
// renders nothing and exits through the fail path — nonzero, with the
// error and the counter lines on stderr — instead of printing nothing
// and reporting success.
func TestNoSuchExperimentFails(t *testing.T) {
	for _, args := range [][]string{{"-fig", "99"}, {"-table", "5"}} {
		stdout, stderr, code := runBench(t, append(args, "-cache-dir", t.TempDir())...)
		if code == 0 || stdout != "" {
			t.Fatalf("%v: exit %d, stdout %q; want a nonzero exit and nothing rendered", args, code, stdout)
		}
		for _, want := range []string{"no such experiment", "janus-bench: artcache:", "janus-bench: free lists:"} {
			if !strings.Contains(stderr, want) {
				t.Fatalf("%v: stderr lacks %q:\n%s", args, want, stderr)
			}
		}
	}
}
