package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"janus/internal/janusd"
)

// kind is one request type of the service mix: a single figure or
// table of the suite.
type kind struct {
	name       string
	fig, table int
}

func parseKind(name string) (kind, error) {
	k := kind{name: name}
	var err error
	switch {
	case strings.HasPrefix(name, "fig"):
		k.fig, err = strconv.Atoi(name[3:])
	case strings.HasPrefix(name, "tab"):
		k.table, err = strconv.Atoi(name[3:])
	default:
		err = errors.New("want figN or tabN")
	}
	if err != nil {
		return k, fmt.Errorf("request kind %q: %w", name, err)
	}
	return k, nil
}

func (k kind) request() janusd.Request { return janusd.Request{Fig: k.fig, Table: k.table} }

// mixStream is one client's request sequence: seeded shuffles of the
// kind list, one after another. Every round holds each kind once, so
// the slow kind's share of a window — and with it the tail percentile
// — does not depend on the seed's luck, only the order does.
type mixStream struct {
	rng   splitmix
	kinds []kind
	order []int
	pos   int
}

func newMixStream(seed uint64, client int, kinds []kind) *mixStream {
	return &mixStream{rng: splitmix{s: seed ^ uint64(client+1)*0xd1342543de82ef95}, kinds: kinds}
}

func (m *mixStream) next() kind {
	if m.pos == len(m.order) {
		m.order = m.order[:0]
		for i := range m.kinds {
			m.order = append(m.order, i)
		}
		for i := len(m.order) - 1; i > 0; i-- {
			j := int(m.rng.next() % uint64(i+1))
			m.order[i], m.order[j] = m.order[j], m.order[i]
		}
		m.pos = 0
	}
	k := m.kinds[m.order[m.pos]]
	m.pos++
	return k
}

// tile checks that the bodies, in order, cover the fixture exactly.
func tile(fixture []byte, bodies []string) error {
	rest := fixture
	for i, b := range bodies {
		if b == "" || !bytes.HasPrefix(rest, []byte(b)) {
			return fmt.Errorf("body %d (%d bytes) does not continue the fixture at offset %d", i, len(b), len(fixture)-len(rest))
		}
		rest = rest[len(b):]
	}
	if len(rest) != 0 {
		return fmt.Errorf("bodies stop %d bytes short of the fixture", len(rest))
	}
	return nil
}

// service is an in-process janusd on a loopback listener: the code
// path cmd/janusd runs, minus signals.
type service struct {
	srv    *janusd.Server
	base   string
	served chan error
	http   *http.Client
}

func startService(cfg janusd.Config) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		srv:    janusd.New(cfg),
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1), // Serve's one result, read by stop
		http:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * runtime.GOMAXPROCS(0)}},
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop drains the server and waits until Serve has returned. The
// client's spare connections are closed first: one that was dialled
// but never used looks active to the server's shutdown for longer than
// Drain is willing to wait.
func (s *service) stop() error {
	s.http.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	if serr := <-s.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func (s *service) client(seed uint64) *janusd.Client {
	return &janusd.Client{Base: s.base, HTTP: s.http, Backoff: janusd.Backoff{Seed: seed}}
}

// reqRec is one request as its client saw it.
type reqRec struct {
	kind      string
	latencyMS float64
	serverMS  float64
}

// svc is a warmed service with the reference body of every kind.
type svc struct {
	*service
	cacheDir string
	expect   map[string]string
	mixes    []*mixStream
	clients  []*janusd.Client
}

// openService starts a daemon in a process made to look fresh and
// warms it with one request for the whole selection, checked against
// the fixture. With an empty cacheDir the daemon gets a fresh cache
// directory, and the call is the set-up a service pays before it is
// useful.
func openService(c *config, golden []byte, cacheDir string) (*svc, error) {
	if cacheDir == "" {
		var err error
		if cacheDir, err = os.MkdirTemp(c.tmp, "svc-cache-"); err != nil {
			return nil, err
		}
	}
	freshProcessState()
	s, err := startService(janusd.Config{Workers: runtime.GOMAXPROCS(0), CacheDir: cacheDir})
	if err != nil {
		return nil, err
	}
	v := &svc{service: s, cacheDir: cacheDir, expect: map[string]string{}}
	sel := c.sizes.sel
	res, err := s.client(c.seed).Render(context.Background(), janusd.Request{Fig: sel.fig, Table: sel.table})
	if err == nil && res.Failed() {
		err = fmt.Errorf("%s: %s", res.ErrKind, res.Err)
	}
	if err == nil {
		err = checkRender(res.Output, golden, sel)
	}
	if err != nil {
		return nil, errors.Join(fmt.Errorf("warming request: %w", err), s.stop())
	}
	return v, nil
}

// learn fetches every kind once. The bodies must tile the fixture;
// every later reply must equal its kind's body here.
func (v *svc) learn(c *config, golden []byte) error {
	var bodies []string
	for _, name := range c.sizes.learn {
		k, err := parseKind(name)
		if err != nil {
			return err
		}
		res, err := v.client(c.seed).Render(context.Background(), k.request())
		if err != nil {
			return err
		}
		if res.Failed() {
			return fmt.Errorf("%s: %s: %s", name, res.ErrKind, res.Err)
		}
		v.expect[name] = res.Output
		bodies = append(bodies, res.Output)
	}
	if c.sizes.sel.full() {
		return tile(golden, bodies)
	}
	return checkRender(strings.Join(bodies, ""), golden, c.sizes.sel)
}

// window drives one closed-loop client per core — no more connections
// than cores — for d: each client sends its next request when the
// previous reply is in. Requests that start inside the window count;
// the call returns when the last of them is answered. With a tracer,
// requests become spans (the server's own elapsed time a child span)
// and a poller samples the daemon's pool every 50 ms.
func (v *svc) window(d time.Duration, tr *tracer, r *result) (recs []reqRec, attempted int, pool poolLog) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	stopPoll := make(chan struct{})
	var pollDone sync.WaitGroup
	if tr != nil {
		pollDone.Add(1)
		go func() {
			defer pollDone.Done()
			tick := time.NewTicker(50 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopPoll:
					return
				case <-tick.C:
					st := v.srv.Snapshot()
					pool.samples++
					pool.runningSum += st.Running
					pool.queuedMax = max(pool.queuedMax, st.Queued)
				}
			}
		}()
	}
	deadline := time.Now().Add(d)
	for i := range v.clients {
		wg.Add(1)
		go func(cl *janusd.Client, mix *mixStream) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := mix.next()
				mu.Lock()
				op := attempted
				attempted++
				mu.Unlock()
				id := tr.begin("janusd.request", -1, op)
				t0 := time.Now()
				res, err := cl.Render(context.Background(), k.request())
				lat := time.Since(t0)
				tr.end(id)
				switch {
				case err == nil && res.Failed():
					err = fmt.Errorf("%s: %s: %s", k.name, res.ErrKind, res.Err)
				case err == nil && res.Output != v.expect[k.name]:
					err = fmt.Errorf("%s: reply differs from the kind's reference body", k.name)
				}
				mu.Lock()
				if err != nil {
					r.fail(err)
				} else {
					recs = append(recs, reqRec{k.name, float64(lat.Nanoseconds()) / 1e6, float64(res.ElapsedMS)})
					if tr != nil {
						end := time.Since(tr.t0).Nanoseconds()
						tr.add("janusd.server", id, op, end, res.ElapsedMS*1e6)
					}
				}
				mu.Unlock()
			}
		}(v.clients[i], v.mixes[i])
	}
	wg.Wait()
	close(stopPoll)
	pollDone.Wait()
	return recs, attempted, pool
}

// poolLog is what the Snapshot poller saw.
type poolLog struct {
	samples, runningSum, queuedMax int
}

// serviceLog is a measured service window.
type serviceLog struct {
	opLog
	recs        []reqRec
	wall        float64 // seconds the window actually lasted
	pool        poolLog
	before, end janusd.Stats
}

// measure runs the warm-up and the timed window. A traced run traces
// the window's second half and not the first, which gives the tracing
// overhead from one process.
func (v *svc) measure(c *config, d time.Duration, tr *tracer, r *result) serviceLog {
	v.clients, v.mixes = nil, nil
	kinds := make([]kind, len(c.sizes.mix))
	for i, name := range c.sizes.mix {
		kinds[i], _ = parseKind(name) // names are constants checked by the tests
	}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		v.clients = append(v.clients, v.client(c.seed+uint64(i)))
		v.mixes = append(v.mixes, newMixStream(c.seed, i, kinds))
	}
	_, n, _ := v.window(c.sizes.serviceWarmup, nil, r)
	r.Attempted += n

	// A traced run splits the window: an untraced half, then a traced
	// half.
	halves := []*tracer{nil}
	if tr != nil {
		halves = []*tracer{nil, tr}
	}
	var l serviceLog
	l.before = v.srv.Snapshot()
	cpu0, alloc0 := cpuSeconds(), allocBytes()
	start := time.Now()
	for _, halfTr := range halves {
		recs, n, pool := v.window(d/time.Duration(len(halves)), halfTr, r)
		l.attempted += n
		l.recs = append(l.recs, recs...)
		for _, rec := range recs {
			if halfTr != nil {
				l.tracedDurs = append(l.tracedDurs, rec.latencyMS/1e3)
			} else {
				l.durs = append(l.durs, rec.latencyMS/1e3)
			}
		}
		if halfTr != nil {
			l.pool = pool
		}
	}
	l.wall = time.Since(start).Seconds()
	l.cpu = cpuSeconds() - cpu0
	l.allocMB = float64(allocBytes()-alloc0) / 1e6
	l.end = v.srv.Snapshot()
	return l
}

// typicalSeconds is the latency of a typical request when every kind
// counts the same: the mean over kinds of each kind's median. The
// plain median over the mix only moves with the kinds that happen to
// sit next to it; this moves with every kind, the slow one included,
// and stays a median where the noise is.
func (l serviceLog) typicalSeconds() float64 {
	byKind := map[string][]float64{}
	for _, rec := range l.recs {
		byKind[rec.kind] = append(byKind[rec.kind], rec.latencyMS/1e3)
	}
	var medians []float64
	for _, v := range byKind {
		medians = append(medians, median(v))
	}
	return sum(medians) / float64(max(len(medians), 1))
}

// layerMetrics reports what the window says about the janusd and pool
// layers.
func (l serviceLog) layerMetrics(r *result) {
	var latency, server, overhead []float64
	byKind := map[string][]float64{}
	for _, rec := range l.recs {
		latency = append(latency, rec.latencyMS)
		server = append(server, rec.serverMS)
		overhead = append(overhead, rec.latencyMS-rec.serverMS)
		byKind[rec.kind] = append(byKind[rec.kind], rec.latencyMS)
	}
	n := len(l.recs)
	// The tail is p95 once it has ten samples beyond it (200 requests),
	// p90 until then; the sample count printed beside it says how far
	// to trust it.
	tail := tailPercentile(n, 90, 95)
	r.set("janusd.latency_tail_ms", "ms", percentile(latency, tail), n)
	r.set("janusd.latency_tail_pct", "pct", tail, n)
	r.set("janusd.req_per_s", "1/s", float64(n)/l.wall, n)
	r.set("janusd.server_elapsed_p50_ms", "ms", median(server), n)
	r.set("janusd.overhead_p50_ms", "ms", median(overhead), n)
	for _, name := range experimentNames[:8] {
		r.set("janusd.latency_"+name+"_p50_ms", "ms", median(byKind[name]), len(byKind[name]))
	}
	r.set("janusd.served", "count", float64(l.end.Served-l.before.Served), 0)
	r.set("janusd.shed", "count", float64(l.end.Shed-l.before.Shed), 0)
	r.set("janusd.cache_hits_per_req", "count", float64(l.end.CacheHits-l.before.CacheHits)/float64(max(n, 1)), n)
	r.set("pool.running_mean", "count", float64(l.pool.runningSum)/float64(max(l.pool.samples, 1)), l.pool.samples)
	r.set("pool.queued_max", "count", float64(l.pool.queuedMax), l.pool.samples)
}

// overloadProbe shows what the daemon does when asked for more than it
// admits: one worker, no queue, and four submissions per core sent at
// once over raw HTTP, without the client's retries.
func overloadProbe(c *config, cacheDir string, r *result) error {
	s, err := startService(janusd.Config{Workers: 1, QueueDepth: -1, CacheDir: cacheDir})
	if err != nil {
		return err
	}
	k, err := parseKind(c.sizes.overloadKind)
	if err != nil {
		return errors.Join(err, s.stop())
	}
	body := fmt.Sprintf(`{"fig":%d,"table":%d}`, k.fig, k.table)
	n := 4 * runtime.GOMAXPROCS(0)
	var mu sync.Mutex
	var shedMS []float64
	var bad error
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			t0 := time.Now()
			res, err := s.http.Post(s.base+"/v1/render", "application/json", strings.NewReader(body))
			if err == nil {
				_, err = io.Copy(io.Discard, res.Body)
				res.Body.Close()
			}
			ms := float64(time.Since(t0).Nanoseconds()) / 1e6
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				bad = err
			case res.StatusCode == http.StatusTooManyRequests:
				shedMS = append(shedMS, ms)
			case res.StatusCode != http.StatusOK:
				bad = fmt.Errorf("overload probe: HTTP %d", res.StatusCode)
			}
		}()
	}
	close(gate)
	wg.Wait()
	r.set("janusd.shed_share_overload", "share", float64(len(shedMS))/float64(n), n)
	r.set("janusd.shed_reply_p50_ms", "ms", median(shedMS), len(shedMS))
	return errors.Join(bad, s.stop())
}

// runService is the service_warm workload: closed-loop clients, one
// per core, against a warmed in-process daemon.
func runService(c *config, r *result) error {
	golden, err := os.ReadFile(filepath.Join(c.root, goldenPath))
	if err != nil {
		return err
	}
	var tr *tracer
	if c.trace {
		tr = newTracer()
		defer c.writeTrace(tr, r)
	}
	var setup []float64
	var v *svc
	for i := 0; i < c.sizes.setupReps; i++ {
		if v != nil {
			if err := v.stop(); err != nil {
				return err
			}
			os.RemoveAll(v.cacheDir)
		}
		t := startTimer()
		if v, err = openService(c, golden, ""); err != nil {
			return err
		}
		setup = append(setup, t.seconds())
	}
	err = v.learn(c, golden)
	var l serviceLog
	if err == nil {
		l = v.measure(c, c.window(), tr, r)
	}
	if err = errors.Join(err, v.stop()); err != nil {
		return err
	}
	r.endToEnd(setup, l.opLog)
	r.set("op_s", "s", l.typicalSeconds(), len(l.recs))
	if !c.trace {
		return nil
	}
	r.set("trace.overhead_share", "share", l.overhead(), len(l.tracedDurs))
	l.layerMetrics(r)
	if err := overloadProbe(c, v.cacheDir, r); err != nil {
		return err
	}
	return layerProbes(c, r, tr, probeInputs{golden: golden, cacheDir: v.cacheDir, coldRenders: setup, serviceDone: true})
}

// serviceProbe gives the janusd and pool layers a reading on workloads
// that do not serve requests: a short version of service_warm over an
// already populated cache.
func serviceProbe(c *config, r *result, tr *tracer, golden []byte, cacheDir string) error {
	v, err := openService(c, golden, cacheDir)
	if err != nil {
		return err
	}
	err = v.learn(c, golden)
	if err == nil {
		v.measure(c, c.sizes.probeWindow, tr, r).layerMetrics(r)
	}
	if err = errors.Join(err, v.stop()); err != nil {
		return err
	}
	return overloadProbe(c, v.cacheDir, r)
}
