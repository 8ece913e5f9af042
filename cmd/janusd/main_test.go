package main

// End-to-end lifecycle tests against the real daemon binary: the test
// binary re-execs itself into run() (helper-process idiom), so SIGTERM
// drain and SIGHUP hot restart are exercised with real processes, real
// signals and a real inherited listener fd.

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"janus/internal/harness"
	"janus/internal/janusd"
)

// TestHelperDaemon is not a test: re-exec'd by the lifecycle tests
// below, it becomes the daemon process.
func TestHelperDaemon(t *testing.T) {
	if os.Getenv("JANUSD_HELPER") != "1" {
		t.Skip("helper process for the daemon lifecycle tests")
	}
	os.Exit(run(strings.Fields(os.Getenv("JANUSD_ARGS"))))
}

// startDaemon launches the helper daemon with args, logging to logPath
// (a file, not a pipe: a hot-restarted grandchild inherits the fd and
// must never die on SIGPIPE after the parent exits).
func startDaemon(t *testing.T, logPath, args string) *exec.Cmd {
	t.Helper()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperDaemon$", "-test.v")
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.Env = append(os.Environ(), "JANUSD_HELPER=1", "JANUSD_ARGS="+args)
	if err := cmd.Start(); err != nil {
		logf.Close()
		t.Fatal(err)
	}
	logf.Close() // the child holds its own copy
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	return cmd
}

// waitLog polls logPath until re matches, returning the submatches.
func waitLog(t *testing.T, logPath string, re *regexp.Regexp) []string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		b, err := os.ReadFile(logPath)
		if err == nil {
			if m := re.FindStringSubmatch(string(b)); m != nil {
				return m
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	b, _ := os.ReadFile(logPath)
	t.Fatalf("log never matched %v; contents:\n%s", re, b)
	return nil
}

var readyRe = regexp.MustCompile(`janusd: pid (\d+) listening on ([0-9.:]+)`)
var resumedRe = regexp.MustCompile(`janusd: pid (\d+) resumed listener \(hot restart\) on ([0-9.:]+)`)

func tab2Expected(t *testing.T) string {
	t.Helper()
	out, err := harness.RenderAll(harness.DefaultOptions(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// submitJob posts one async job and returns its ID.
func submitJob(t *testing.T, base string) string {
	t.Helper()
	res, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(`{"table":2}`))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", res.StatusCode, payload)
	}
	var acc janusd.Response
	if err := json.Unmarshal(payload, &acc); err != nil || acc.ID == "" {
		t.Fatalf("submit response %s: %v", payload, err)
	}
	return acc.ID
}

// waitRunning polls the job until the daemon reports it running.
func waitRunning(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		res, err := http.Get(base + "/v1/jobs/" + id)
		if err == nil {
			payload, _ := io.ReadAll(res.Body)
			res.Body.Close()
			var r janusd.Response
			if json.Unmarshal(payload, &r) == nil && r.State != janusd.StateQueued {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never left the queue", id)
}

// fetchResult blocks on the result endpoint.
func fetchResult(base, id string) (*janusd.Response, error) {
	res, err := (&http.Client{Timeout: time.Minute}).Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	payload, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, err
	}
	var r janusd.Response
	if err := json.Unmarshal(payload, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// TestQueueZeroSheds: -queue 0 means no queue, not the default depth:
// with the one worker wedged, the next request is shed with 429.
func TestQueueZeroSheds(t *testing.T) {
	logPath := t.TempDir() + "/daemon.log"
	startDaemon(t, logPath,
		"-addr 127.0.0.1:0 -workers 1 -queue 0 -inject slow-worker@1 -stall 30s -quiet")
	m := waitLog(t, logPath, readyRe)
	base := "http://" + m[2]

	waitRunning(t, base, submitJob(t, base))
	res, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(`{"table":2}`))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request with -queue 0: status %d, want 429: %s", res.StatusCode, payload)
	}
}

// TestSIGTERMGracefulDrain: a daemon with a request in flight, sent
// SIGTERM, completes and delivers the request, refuses new work, and
// exits 0.
func TestSIGTERMGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemon processes; skipped in -short")
	}
	logPath := t.TempDir() + "/daemon.log"
	cmd := startDaemon(t, logPath,
		"-addr 127.0.0.1:0 -workers 1 -queue 4 -drain 30s -inject slow-worker@1 -stall 500ms -quiet")
	m := waitLog(t, logPath, readyRe)
	base := "http://" + m[2]

	id := submitJob(t, base)
	waitRunning(t, base, id)
	resc := make(chan *janusd.Response, 1)
	errc := make(chan error, 1)
	go func() {
		r, err := fetchResult(base, id)
		if err != nil {
			errc <- err
			return
		}
		resc <- r
	}()
	// Give the blocking result exchange a moment to be in flight.
	time.Sleep(50 * time.Millisecond)

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		t.Fatalf("in-flight result dropped during drain: %v", err)
	case r := <-resc:
		if r.State != janusd.StateDone || r.Output != tab2Expected(t) {
			t.Fatalf("drained job: state %s err %s", r.State, r.Err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("result never arrived")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon did not exit 0 after SIGTERM drain: %v", err)
	}
	waitLog(t, logPath, regexp.MustCompile(`exiting after drain`))
}

// TestSIGHUPHotRestart: SIGHUP with a request in flight hands the
// listener to a replacement process; the in-flight request completes
// on the old process, the old process exits 0, and the same address
// keeps serving from the new pid.
func TestSIGHUPHotRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemon processes; skipped in -short")
	}
	logPath := t.TempDir() + "/daemon.log"
	cmd := startDaemon(t, logPath,
		"-addr 127.0.0.1:0 -workers 1 -queue 4 -drain 30s -inject slow-worker@1 -stall 700ms -quiet")
	m := waitLog(t, logPath, readyRe)
	oldPID, _ := strconv.Atoi(m[1])
	base := "http://" + m[2]

	id := submitJob(t, base)
	waitRunning(t, base, id)
	resc := make(chan *janusd.Response, 1)
	errc := make(chan error, 1)
	go func() {
		r, err := fetchResult(base, id)
		if err != nil {
			errc <- err
			return
		}
		resc <- r
	}()
	time.Sleep(50 * time.Millisecond)

	if err := cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}

	// The in-flight request must complete through the handoff.
	select {
	case err := <-errc:
		t.Fatalf("in-flight result dropped during hot restart: %v", err)
	case r := <-resc:
		if r.State != janusd.StateDone || r.Output != tab2Expected(t) {
			t.Fatalf("job across hot restart: state %s err %s", r.State, r.Err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("result never arrived")
	}
	// The old process drains and exits 0.
	if err := cmd.Wait(); err != nil {
		t.Fatalf("old daemon did not exit 0: %v", err)
	}
	// The replacement inherited the exact listener.
	m = waitLog(t, logPath, resumedRe)
	newPID, _ := strconv.Atoi(m[1])
	if newPID == oldPID {
		t.Fatalf("hot restart reused pid %d", oldPID)
	}
	if m[2] != strings.TrimPrefix(base, "http://") {
		t.Fatalf("replacement listens on %s, want %s", m[2], base)
	}
	defer func() {
		_ = syscall.Kill(newPID, syscall.SIGTERM)
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) && syscall.Kill(newPID, 0) == nil {
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// Same address, new pid, still byte-identical. Retry while the old
	// process finishes closing its copy of the listener.
	c := &janusd.Client{Base: base, Backoff: janusd.Backoff{
		Base: 20 * time.Millisecond, Max: 200 * time.Millisecond, Retries: 100, Seed: 3,
	}}
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, err := c.Stats(t.Context())
		if err == nil && st.PID == newPID {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("statusz never reported the new pid %d (last err %v)", newPID, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	res, err := c.Render(t.Context(), janusd.Request{Table: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != tab2Expected(t) {
		t.Fatal("render after hot restart not byte-identical")
	}
}
