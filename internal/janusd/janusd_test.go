package janusd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"janus/internal/faultinject"
	"janus/internal/harness"
)

// startServer runs an in-process daemon on a loopback listener and
// returns it with its base URL and the Serve error channel.
func startServer(t *testing.T, cfg Config) (*Server, string, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(cfg)
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(ln) }()
	t.Cleanup(func() { s.Close() })
	return s, "http://" + ln.Addr().String(), errc
}

// tab2Output is the expected body for a {table:2} render — Table II is
// static data, so it renders instantly and byte-identically everywhere.
var (
	tab2Once sync.Once
	tab2Out  string
)

func tab2Expected(t *testing.T) string {
	t.Helper()
	tab2Once.Do(func() {
		out, err := harness.RenderAll(harness.DefaultOptions(), 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		tab2Out = out
	})
	return tab2Out
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	res, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return res, payload
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return res, payload
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// reply is one finished /v1/render exchange.
type reply struct {
	status int
	body   []byte
	err    error
}

// renderAsync posts body to /v1/render on its own goroutine and
// delivers the exchange once it ends, so a test can act while the job
// it submitted is queued or running.
func renderAsync(base, body string) <-chan reply {
	c := make(chan reply, 1)
	go func() {
		res, err := http.Post(base+"/v1/render", "application/json", strings.NewReader(body))
		if err != nil {
			c <- reply{err: err}
			return
		}
		payload, err := io.ReadAll(res.Body)
		res.Body.Close()
		c <- reply{res.StatusCode, payload, err}
	}()
	return c
}

// statusz fetches the daemon's /statusz snapshot over HTTP.
func statusz(t *testing.T, base string) Stats {
	t.Helper()
	res, payload := getBody(t, base+"/statusz")
	var st Stats
	if err := json.Unmarshal(payload, &st); err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("statusz: %d %v: %s", res.StatusCode, err, payload)
	}
	return st
}

// waitRunning waits until /statusz counts n jobs holding a run slot.
func waitRunning(t *testing.T, base string, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d jobs running", n), func() bool { return statusz(t, base).Running == n })
}

// wantTab2 fails unless r is a 200 whose body is the Table II render.
func wantTab2(t *testing.T, what string, r reply) {
	t.Helper()
	if r.err != nil {
		t.Fatalf("%s: %v", what, r.err)
	}
	if r.status != http.StatusOK || string(r.body) != tab2Expected(t) {
		t.Fatalf("%s: status %d: %s", what, r.status, r.body)
	}
}

// TestRenderSync pins the synchronous endpoint: the body is the exact
// bytes a local render produces, with job metadata in headers.
func TestRenderSync(t *testing.T) {
	_, base, _ := startServer(t, Config{Workers: 2})
	res, payload := postJSON(t, base+"/v1/render", `{"table":2}`)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", res.StatusCode, payload)
	}
	if string(payload) != tab2Expected(t) {
		t.Fatalf("service render differs from local render:\n%q", payload)
	}
	if res.Header.Get("X-Janus-Job") == "" {
		t.Fatal("missing X-Janus-Job header")
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if st := statusz(t, base); st.Served != 1 || st.PID != os.Getpid() {
		t.Fatalf("statusz: %+v", st)
	}
}

// mustPlan parses a fault plan spec or dies.
func mustPlan(t *testing.T, spec string) *faultinject.Plan {
	t.Helper()
	p, err := faultinject.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLoadShedding pins the admission bound: with one worker wedged by
// a slow-worker fault and zero queue depth, the next submission is
// shed with 429 + Retry-After and a typed response.
func TestLoadShedding(t *testing.T) {
	s, base, _ := startServer(t, Config{
		Workers:    1,
		QueueDepth: -1, // no queue: shed as soon as the worker is busy
		Inject:     mustPlan(t, "slow-worker@1"),
		StallDelay: 500 * time.Millisecond,
	})
	wedged := renderAsync(base, `{"table":2}`)
	waitRunning(t, base, 1)

	res, payload := postJSON(t, base+"/v1/render", `{"table":2}`)
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status %d, want 429: %s", res.StatusCode, payload)
	}
	if ra := res.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	var shed Response
	if err := json.Unmarshal(payload, &shed); err != nil || shed.ErrKind != KindShed {
		t.Fatalf("shed kind %q err %v", shed.ErrKind, err)
	}
	if s.Snapshot().Shed == 0 {
		t.Fatal("shed counter not incremented")
	}

	// The wedged job still completes correctly.
	wantTab2(t, "wedged job", <-wedged)
}

// TestClientBackoffCompletesAll is the load-shed acceptance shape at
// small scale: pool cap 1, no queue, N concurrent clients; everyone
// completes through seeded jittered backoff and every output is
// byte-identical.
func TestClientBackoffCompletesAll(t *testing.T) {
	s, base, _ := startServer(t, Config{
		Workers:    1,
		QueueDepth: -1,
		Inject:     mustPlan(t, "slow-worker@1"),
		StallDelay: 100 * time.Millisecond,
	})
	const n = 4
	outs := make([]*Response, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &Client{Base: base, Backoff: Backoff{
				Base:    20 * time.Millisecond,
				Max:     200 * time.Millisecond,
				Retries: 50,
				Seed:    uint64(i + 1),
			}}
			outs[i], errs[i] = c.Render(context.Background(), Request{Table: 2})
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if outs[i].Output != tab2Expected(t) {
			t.Fatalf("client %d output differs", i)
		}
	}
	if s.Snapshot().Shed == 0 {
		t.Fatal("no submission was ever shed — the test exercised nothing")
	}
}

// TestDeadline pins per-request deadlines: a job wedged in the queue
// past its deadline fails with the typed deadline kind and HTTP 504.
func TestDeadline(t *testing.T) {
	_, base, _ := startServer(t, Config{
		Workers:    1,
		Inject:     mustPlan(t, "queue-stall@1"),
		StallDelay: time.Second,
	})
	res, payload := postJSON(t, base+"/v1/render", `{"table":2,"deadline_ms":50}`)
	if res.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", res.StatusCode, payload)
	}
	var r Response
	if err := json.Unmarshal(payload, &r); err != nil || r.ErrKind != KindDeadline {
		t.Fatalf("kind %q err %v: %s", r.ErrKind, err, payload)
	}
}

// TestPanicContainment: a handler panic becomes a structured error and
// the daemon keeps serving.
func TestPanicContainment(t *testing.T) {
	_, base, _ := startServer(t, Config{
		Workers: 2,
		Inject:  mustPlan(t, "handler-panic@1"),
	})
	res, payload := postJSON(t, base+"/v1/render", `{"table":2}`)
	if res.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", res.StatusCode, payload)
	}
	var r Response
	if err := json.Unmarshal(payload, &r); err != nil {
		t.Fatal(err)
	}
	if r.ErrKind != KindPanic || !strings.Contains(r.Err, "handler-panic") {
		t.Fatalf("kind %q err %q", r.ErrKind, r.Err)
	}
	// The daemon survived: liveness and the whole API still answer.
	res, payload = getBody(t, base+"/healthz")
	if res.StatusCode != http.StatusOK || !strings.Contains(string(payload), "ok") {
		t.Fatalf("healthz after panic: %d %s", res.StatusCode, payload)
	}
}

// TestServiceFaultMatrix is the acceptance matrix over the new
// service-level points: for every point × stride × seed, the daemon
// never dies, and every request ends in either a byte-identical
// success or a typed structured error.
func TestServiceFaultMatrix(t *testing.T) {
	want := tab2Expected(t)
	for _, spec := range []string{
		"handler-panic@1", "handler-panic@2#1", "handler-panic@3#7",
		"queue-stall@1", "queue-stall@2#5",
		"slow-worker@1", "slow-worker@2#9",
	} {
		t.Run(spec, func(t *testing.T) {
			_, base, _ := startServer(t, Config{
				Workers:    2,
				QueueDepth: 8,
				Inject:     mustPlan(t, spec),
				StallDelay: 10 * time.Millisecond,
			})
			const n = 6
			var wg sync.WaitGroup
			results := make([]*Response, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					res, payload := postJSON(t, base+"/v1/render", `{"table":2}`)
					r := &Response{}
					if res.StatusCode == http.StatusOK {
						r.State, r.Output = StateDone, string(payload)
					} else if err := json.Unmarshal(payload, r); err != nil {
						t.Errorf("request %d: undecodable %d response %q", i, res.StatusCode, payload)
						return
					}
					results[i] = r
				}(i)
			}
			wg.Wait()
			panics := 0
			for i, r := range results {
				if r == nil {
					continue // already reported
				}
				switch {
				case r.State == StateDone:
					if r.Output != want {
						t.Errorf("request %d: success with wrong bytes", i)
					}
				case r.ErrKind == KindPanic:
					panics++
				default:
					t.Errorf("request %d: unexpected failure kind %q: %s", i, r.ErrKind, r.Err)
				}
			}
			if strings.HasPrefix(spec, "handler-panic") && panics == 0 {
				t.Error("handler-panic plan fired no panic")
			}
			// Liveness after the storm.
			if res, _ := getBody(t, base+"/healthz"); res.StatusCode != http.StatusOK {
				t.Fatal("daemon unhealthy after fault matrix")
			}
		})
	}
}

// TestDrainGraceful: during drain the daemon refuses new work with the
// typed draining kind, readyz flips to 503, in-flight jobs complete
// and deliver, and Serve exits cleanly.
func TestDrainGraceful(t *testing.T) {
	s, base, errc := startServer(t, Config{
		Workers:    1,
		Inject:     mustPlan(t, "slow-worker@1"),
		StallDelay: 400 * time.Millisecond,
	})
	// The render exchange is open before draining: its response must be
	// delivered through the drain.
	inflight := renderAsync(base, `{"table":2}`)
	waitRunning(t, base, 1)

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- s.Drain(ctx)
	}()
	waitFor(t, "draining", s.Draining)

	if res, _ := getBody(t, base+"/readyz"); res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d", res.StatusCode)
	}
	if res, payload := postJSON(t, base+"/v1/render", `{"table":2}`); res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d %s", res.StatusCode, payload)
	} else {
		var r Response
		if err := json.Unmarshal(payload, &r); err != nil || r.ErrKind != KindDraining {
			t.Fatalf("draining kind %q err %v", r.ErrKind, err)
		}
	}

	wantTab2(t, "in-flight job through the drain", <-inflight)
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-errc; err != http.ErrServerClosed {
		t.Fatalf("serve returned %v", err)
	}
}

// TestDrainClosesSilentConnection: a connection that was dialled but
// never sent a request — a client's spare — does not hold Drain up.
// net/http counts such a connection as active until it is 5 s old, as
// long as Drain's flush window, so Drain closes it once every job is
// done, and returns nil well inside the window.
func TestDrainClosesSilentConnection(t *testing.T) {
	s, base, errc := startServer(t, Config{Workers: 1})
	silent, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// The listener accepts in dial order, so once a later connection has
	// been served, the silent one has been accepted too.
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	if res, err := probe.Get(base + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		res.Body.Close()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain with a silent connection open: %v after %v", err, time.Since(start))
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("drain took %v with a silent connection open", elapsed)
	}
	silent.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := silent.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("silent connection after drain: read %d bytes, %v; want it closed", n, err)
	}
	if err := <-errc; err != http.ErrServerClosed {
		t.Fatalf("serve returned %v", err)
	}
}

// TestDrainDeadlineCancels: when the drain budget expires, still-running
// jobs are cancelled through their contexts and flush typed responses —
// clients get an answer, never a dropped connection.
func TestDrainDeadlineCancels(t *testing.T) {
	s, base, _ := startServer(t, Config{
		Workers:    1,
		Inject:     mustPlan(t, "slow-worker@1"),
		StallDelay: 30 * time.Second, // far beyond the drain budget
	})
	j, err := s.Submit(Request{Table: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, base, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hard drain took %v — the stalled job was not cancelled", elapsed)
	}
	final, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if final.ErrKind != KindCanceled && final.ErrKind != KindDeadline {
		t.Fatalf("cancelled job kind %q (err %q)", final.ErrKind, final.Err)
	}
}

// TestBadRequests: malformed bodies, inject specs, selections naming
// no experiment, the retired cache_dir, static_partition,
// single_goroutine and jobs fields (a client may not choose where the
// daemon writes, nor its engine or row concurrency), a thread count
// above maxThreads and a body over maxRequestBytes are refused with
// typed 400s before admission; the retired job routes answer 404 and
// admit nothing.
func TestBadRequests(t *testing.T) {
	s, base, _ := startServer(t, Config{Workers: 1})
	for _, body := range []string{
		`{bad json`, `{"nope":1}`, `{"inject":"not-a-point"}`,
		`{"table":2,"cache_dir":"/tmp/x"}`, `{"table":2,"static_partition":true}`,
		`{"table":2,"single_goroutine":true}`, `{"table":2,"jobs":4}`,
		`{"fig":99}`, `{"table":3}`, `{"table":2,"threads":65}`,
		`{"table":2` + strings.Repeat(" ", 2<<20) + `}`,
	} {
		res, payload := postJSON(t, base+"/v1/render", body)
		if res.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %.40q: status %d: %s", body, res.StatusCode, payload)
		}
		var r Response
		if err := json.Unmarshal(payload, &r); err != nil || r.ErrKind != KindBadRequest {
			t.Fatalf("body %.40q: kind %q err %v", body, r.ErrKind, err)
		}
	}
	for _, route := range []struct{ method, path string }{
		{http.MethodPost, "/v1/jobs"}, {http.MethodGet, "/v1/jobs/job-1"},
	} {
		req, err := http.NewRequest(route.method, base+route.path, strings.NewReader(`{"table":2}`))
		if err != nil {
			t.Fatal(err)
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404", route.method, route.path, res.StatusCode)
		}
	}
	if s.Snapshot().Served != 0 {
		t.Fatal("a bad request was admitted")
	}
}

// TestClientRetryAfterFloor pins the backoff math: delays grow
// exponentially from Base, never exceed Max (even against a server
// Retry-After of a full second), and the jitter stream is a pure
// function of the seed.
func TestClientRetryAfterFloor(t *testing.T) {
	c := &Client{Backoff: Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Seed: 42}}
	var prev time.Duration
	for attempt := 0; attempt < 6; attempt++ {
		d := c.delay(attempt, "1") // server hints 1s; Max must cap it
		if d > 80*time.Millisecond*3/2 {
			t.Fatalf("attempt %d: delay %v exceeds jittered Max", attempt, d)
		}
		if d <= 0 {
			t.Fatalf("attempt %d: non-positive delay %v", attempt, d)
		}
		prev = d
	}
	_ = prev
	a := &Client{Backoff: Backoff{Base: time.Millisecond, Seed: 7}}
	b := &Client{Backoff: Backoff{Base: time.Millisecond, Seed: 7}}
	for i := 0; i < 8; i++ {
		if a.next() != b.next() {
			t.Fatal("same seed produced different jitter streams")
		}
	}
}

// TestGoldenThroughService is the headline byte-identity contract: a
// full-suite render served over HTTP equals the janus-bench golden
// fixture exactly; then, with the pool capped at 1 and shedding
// enabled, N concurrent thin clients all complete via backoff and every
// body is again byte-identical.
func TestGoldenThroughService(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite renders are expensive; skipped in -short")
	}
	golden, err := os.ReadFile("../harness/testdata/janus-bench.golden")
	if err != nil {
		t.Fatal(err)
	}
	s, base, _ := startServer(t, Config{Workers: 1, QueueDepth: -1})

	// The first render must execute its runs, not be handed the results
	// an earlier test of this process memoised; the daemon's own status
	// says whether it did. The concurrent clients below are then served
	// from the daemon's memory, which is what a long-lived daemon is for.
	c := &Client{Base: base, Backoff: Backoff{Base: 20 * time.Millisecond, Max: 300 * time.Millisecond, Retries: 100, Seed: 1}}
	warm, err := c.Render(context.Background(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Output != string(golden) {
		t.Fatalf("service render differs from golden fixture (%d vs %d bytes)", len(warm.Output), len(golden))
	}
	if s.Snapshot().CacheKinds["dbm-v3"].Computed == 0 {
		t.Fatal("/statusz counts no DBM run executed by the first render: it compared memoised results with the fixture")
	}

	const n = 3
	outs := make([]*Response, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ci := &Client{Base: base, Backoff: Backoff{
				Base: 20 * time.Millisecond, Max: 300 * time.Millisecond,
				Retries: 200, Seed: uint64(100 + i),
			}}
			outs[i], errs[i] = ci.Render(context.Background(), Request{})
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if outs[i].Output != string(golden) {
			t.Fatalf("client %d: output not byte-identical to golden", i)
		}
	}
	if s.Snapshot().Shed == 0 {
		t.Log("note: no shed occurred (cap-1 contention did not materialise)")
	}
}

// TestUnopenableCacheDegradesOnce: a daemon whose CacheDir cannot be
// opened says so once at start-up and then serves uncached, instead of
// failing every request on the same open error.
func TestUnopenableCacheDegradesOnce(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	_, base, _ := startServer(t, Config{Workers: 1, CacheDir: file, Log: log.New(&logged, "", 0)})
	if n := strings.Count(logged.String(), "unavailable"); n != 1 {
		t.Fatalf("start-up logged the open failure %d times, want 1:\n%s", n, logged.String())
	}
	for i := 0; i < 2; i++ {
		res, payload := postJSON(t, base+"/v1/render", `{"table":2}`)
		if res.StatusCode != http.StatusOK || string(payload) != tab2Expected(t) {
			t.Fatalf("render %d: %d %s", i, res.StatusCode, payload)
		}
	}
}

// TestStatuszShowsFreeListReuse: /statusz reports the process's free
// lists a render draws from, and a second server's render of the same
// figure — its machines and profiles run again, in that server's own
// session — takes page blocks, page-table leaves, dependence tables and
// DBM thread records the first one returned.
func TestStatuszShowsFreeListReuse(t *testing.T) {
	render := func() harness.FreeLists {
		t.Helper()
		_, base, _ := startServer(t, Config{Workers: 1})
		if _, err := (&Client{Base: base}).Render(context.Background(), Request{Fig: 7}); err != nil {
			t.Fatal(err)
		}
		return statusz(t, base).FreeLists
	}
	first := render()
	second := render()
	if second.VMBlocks.Reused <= first.VMBlocks.Reused || second.VMLeaves.Reused <= first.VMLeaves.Reused ||
		second.ProfilerTables.Reused <= first.ProfilerTables.Reused || second.DBMThreads.Reused <= first.DBMThreads.Reused {
		t.Fatalf("second render reused nothing: after the first %+v, after the second %+v", first, second)
	}
}

// TestQueuedDeadlineEndsWait: a job waiting for a slot behind a busy
// worker answers 504 at its own deadline, not once the job ahead of it
// finishes.
func TestQueuedDeadlineEndsWait(t *testing.T) {
	s, base, _ := startServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		Inject:     mustPlan(t, "slow-worker@1"),
		StallDelay: 2 * time.Second,
	})
	first, err := s.Submit(Request{Table: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, base, 1)

	start := time.Now()
	res, payload := postJSON(t, base+"/v1/render", `{"table":2,"deadline_ms":100}`)
	if res.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", res.StatusCode, payload)
	}
	var r Response
	if err := json.Unmarshal(payload, &r); err != nil || r.ErrKind != KindDeadline {
		t.Fatalf("kind %q err %v: %s", r.ErrKind, err, payload)
	}
	select {
	case <-first.done:
		t.Fatalf("the queued job's 504 came after %v, once the job ahead of it had finished", time.Since(start))
	default:
	}
}

// TestAdmissionBoundExact pins the shedding contract: with Workers W
// and QueueDepth D, exactly W+D wedged jobs are admitted, W of them
// running and D queued; the next submission is shed with 429 +
// Retry-After; admission reopens once a job finishes; and Drain lets
// every queued job complete.
func TestAdmissionBoundExact(t *testing.T) {
	const workers, depth = 2, 3
	s, base, _ := startServer(t, Config{
		Workers:    workers,
		QueueDepth: depth,
		Inject:     mustPlan(t, "slow-worker@1"),
		StallDelay: time.Second,
	})
	var jobs []*Job
	for i := 0; i < workers+depth; i++ {
		j, err := s.Submit(Request{Table: 2})
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	waitRunning(t, base, workers)
	if st := statusz(t, base); st.Queued != depth || st.Cap != workers {
		t.Fatalf("statusz %+v, want cap %d, queued %d", st, workers, depth)
	}
	res, payload := postJSON(t, base+"/v1/render", `{"table":2}`)
	var r Response
	if err := json.Unmarshal(payload, &r); err != nil || res.StatusCode != http.StatusTooManyRequests || r.ErrKind != KindShed {
		t.Fatalf("over-bound submission: status %d kind %q, want 429 shed: %s", res.StatusCode, r.ErrKind, payload)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	waitFor(t, "capacity to free", func() bool {
		st := statusz(t, base)
		return st.Running+st.Queued < workers+depth
	})
	j, err := s.Submit(Request{Table: 2})
	if err != nil {
		t.Fatalf("submission after capacity freed: %v", err)
	}
	jobs = append(jobs, j)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, j := range jobs {
		final, err := j.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if final.State != StateDone || final.Output != tab2Expected(t) {
			t.Fatalf("job %s: state %s err %s", j.ID, final.State, final.Err)
		}
	}
	if st := s.Snapshot(); st.Running != 0 || st.Queued != 0 || st.Served != int64(len(jobs)) || st.Shed != 1 {
		t.Fatalf("snapshot after drain %+v, want 0 running, 0 queued, %d served, 1 shed", st, len(jobs))
	}
}

// TestSubmitRacingDrain: submissions from eight goroutines race Drain.
// Every accepted job reaches exactly one terminal response, every
// refusal is typed shed or draining, and no Add races Drain's Wait.
func TestSubmitRacingDrain(t *testing.T) {
	want := tab2Expected(t)
	s, _, _ := startServer(t, Config{Workers: 2, QueueDepth: 2})
	var (
		mu       sync.Mutex
		accepted []*Job
		wg       sync.WaitGroup
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j, err := s.Submit(Request{Table: 2})
				if err == nil {
					mu.Lock()
					accepted = append(accepted, j)
					mu.Unlock()
					continue
				}
				switch kind := submitFailure(err).ErrKind; kind {
				case KindShed:
					time.Sleep(100 * time.Microsecond)
				case KindDraining:
					return
				default:
					t.Errorf("refusal of kind %q: %v", kind, err)
					return
				}
			}
		}()
	}
	waitFor(t, "admissions before the drain", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(accepted) >= 16
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()

	for _, j := range accepted {
		select {
		case <-j.done:
		default:
			t.Fatalf("%s has no terminal response after drain", j.ID)
		}
		if res := j.res; res.State != StateDone || res.Output != want {
			t.Fatalf("%s: state %s err %s", j.ID, res.State, res.Err)
		}
	}
	if st := s.Snapshot(); st.Running != 0 || st.Queued != 0 || st.Served != int64(len(accepted)) {
		t.Fatalf("snapshot after drain %+v, want 0 running, 0 queued, %d served", st, len(accepted))
	}
}

// waitJob waits (bounded) for j's terminal response.
func waitJob(t *testing.T, j *Job) *Response {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("%s: %v", j.ID, err)
	}
	return res
}

// TestSubmitRunsTasks: every job admitted within the bound runs to
// exactly the bytes a local render produces, and the daemon's load
// returns to zero once they finish.
func TestSubmitRunsTasks(t *testing.T) {
	want := tab2Expected(t)
	const n = 100
	s, _, _ := startServer(t, Config{Workers: 4, QueueDepth: n})
	jobs := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		j, err := s.Submit(Request{Table: 2})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		if res := waitJob(t, j); res.State != StateDone || res.Output != want {
			t.Fatalf("%s: state %s err %s", j.ID, res.State, res.Err)
		}
	}
	waitFor(t, "load to return to zero", func() bool {
		st := s.Snapshot()
		return st.Running == 0 && st.Queued == 0
	})
	if st := s.Snapshot(); st.Served != n || st.Shed != 0 {
		t.Fatalf("snapshot %+v, want %d served, 0 shed", st, n)
	}
}

// TestCloseRejectsAndDrains: Drain refuses new work with the typed
// draining error while every job already queued behind the one
// running worker still runs to completion.
func TestCloseRejectsAndDrains(t *testing.T) {
	want := tab2Expected(t)
	s, _, _ := startServer(t, Config{
		Workers:    1,
		QueueDepth: 8,
		Inject:     mustPlan(t, "slow-worker@1"),
		StallDelay: 150 * time.Millisecond,
	})
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := s.Submit(Request{Table: 2})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	waitFor(t, "one job running, three queued", func() bool {
		st := s.Snapshot()
		return st.Running == 1 && st.Queued == 3
	})

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drainErr <- s.Drain(ctx)
	}()
	waitFor(t, "draining", s.Draining)
	if _, err := s.Submit(Request{Table: 2}); submitFailure(err).ErrKind != KindDraining {
		t.Fatalf("submit while draining: got %v, want the draining refusal", err)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, j := range jobs {
		if res := waitJob(t, j); res.State != StateDone || res.Output != want {
			t.Fatalf("queued job dropped by drain: %s state %s err %s", j.ID, res.State, res.Err)
		}
	}
}

// TestPanicKeepsWorkerAlive: a job that panics gives back its run slot,
// so with a single worker the job after it still runs and renders.
func TestPanicKeepsWorkerAlive(t *testing.T) {
	want := tab2Expected(t)
	s, _, _ := startServer(t, Config{
		Workers: 1,
		Inject:  mustPlan(t, "handler-panic@2"),
	})
	// One submission in every two panics. Run four in sequence, each
	// after the last has finished, so every panic is followed by a job
	// that needs the slot the panicking job held.
	var kinds []string
	for i := 0; i < 4; i++ {
		j, err := s.Submit(Request{Table: 2})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		res := waitJob(t, j)
		switch {
		case res.ErrKind == KindPanic && strings.Contains(res.Err, "handler-panic"):
		case res.State == StateDone && res.Output == want:
		default:
			t.Fatalf("%s: state %s kind %q err %s", j.ID, res.State, res.ErrKind, res.Err)
		}
		kinds = append(kinds, res.ErrKind)
	}
	panics := 0
	for i, k := range kinds {
		if k != KindPanic {
			continue
		}
		panics++
		if i+1 < len(kinds) && kinds[i+1] == KindPanic {
			t.Fatalf("two panics in a row %v: the plan arms one submission in two", kinds)
		}
	}
	if panics != 2 {
		t.Fatalf("%d panics in %v, want 2", panics, kinds)
	}
	waitFor(t, "the slot to be free", func() bool { return s.Snapshot().Running == 0 })
}

// TestConcurrentChurn hammers Submit from many goroutines under the
// race detector: every refusal is the typed shed error, every admitted
// job runs exactly once, and the daemon's counters agree.
func TestConcurrentChurn(t *testing.T) {
	want := tab2Expected(t)
	s, _, _ := startServer(t, Config{Workers: 4, QueueDepth: 16})
	var (
		mu       sync.Mutex
		accepted []*Job
		shed     int64
		wg       sync.WaitGroup
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				j, err := s.Submit(Request{Table: 2})
				mu.Lock()
				if err == nil {
					accepted = append(accepted, j)
				} else if submitFailure(err).ErrKind == KindShed {
					shed++
				} else {
					t.Errorf("submit: %v", err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, j := range accepted {
		if res := waitJob(t, j); res.State != StateDone || res.Output != want {
			t.Fatalf("%s: state %s err %s", j.ID, res.State, res.Err)
		}
	}
	waitFor(t, "load to return to zero", func() bool {
		st := s.Snapshot()
		return st.Running == 0 && st.Queued == 0
	})
	if st := s.Snapshot(); st.Served != int64(len(accepted)) || st.Shed != shed {
		t.Fatalf("snapshot %+v, want %d served, %d shed", st, len(accepted), shed)
	}
}
