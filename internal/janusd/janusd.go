// Package janusd is the analysis-as-a-service layer: a long-lived
// daemon that serves the whole build → profile → analyze →
// parallelise → simulate pipeline over HTTP/JSON. Requests are
// promoted into jobs on a bounded worker pool (internal/pool); each
// job carries its own harness.Options, gets an ID, streams progress
// events, and renders byte-identically to janus-bench, so the golden
// fixture pins the service path too.
//
// Robustness is the point of the package:
//
//   - per-request deadlines propagate as context cancellation into the
//     harness scheduler, so an expired job aborts its pending rows
//     instead of running the suite to completion;
//   - submissions beyond the pool's admission bound are shed with
//     HTTP 429 + Retry-After (the janus thin client retries them with
//     seeded jittered exponential backoff);
//   - a panicking job is contained to a structured error response —
//     the daemon never dies with a request;
//   - SIGTERM drains in-flight jobs under a deadline while refusing
//     new work, and SIGHUP hot-restarts by handing the listener fd to
//     a fresh process with zero dropped connections (grace.go);
//   - the whole lifecycle is deterministically testable through the
//     service-level faultinject points (handler-panic, queue-stall,
//     slow-worker).
package janusd

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"janus/internal/artcache"
	"janus/internal/faultinject"
	"janus/internal/harness"
	"janus/internal/pool"
)

// Config configures one daemon instance.
type Config struct {
	// Workers bounds how many jobs render concurrently (the pool cap).
	// Default GOMAXPROCS.
	Workers int
	// QueueDepth bounds how many admitted jobs may wait beyond the
	// running ones; submissions past Workers+QueueDepth are shed.
	// Default 16; negative means no queue at all (shed whenever every
	// worker is busy).
	QueueDepth int
	// DefaultDeadline applies to requests that carry none. Zero means
	// no implicit deadline.
	DefaultDeadline time.Duration
	// DrainTimeout bounds graceful drain (SIGTERM / hot restart): when
	// it expires, still-running jobs are cancelled through their
	// contexts so their responses flush as typed errors. Default 60s.
	DrainTimeout time.Duration
	// CacheDir is the durable artifact cache every request renders
	// through; requests cannot name another. Replicas may share one
	// directory.
	CacheDir string
	// Inject arms service-level fault injection (handler-panic,
	// queue-stall, slow-worker). Region-level points are ignored here —
	// they belong in a request's Inject spec.
	Inject *faultinject.Plan
	// StallDelay is how long queue-stall and slow-worker injections
	// delay an armed job. Default 100ms; tests shrink it.
	StallDelay time.Duration
	// KeepJobs bounds how many finished jobs stay queryable. Default
	// 256.
	KeepJobs int
	// Log receives lifecycle events; nil discards them.
	Log *log.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.QueueDepth == 0:
		c.QueueDepth = 16
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 60 * time.Second
	}
	if c.StallDelay <= 0 {
		c.StallDelay = 100 * time.Millisecond
	}
	if c.KeepJobs <= 0 {
		c.KeepJobs = 256
	}
	if c.Log == nil {
		c.Log = log.New(nowhere{}, "", 0)
	}
	return c
}

type nowhere struct{}

func (nowhere) Write(p []byte) (int, error) { return len(p), nil }

// Request is one pipeline render request: the harness.Options a
// janus-bench invocation would build from its flags, plus a deadline.
// The zero value renders the full suite with default engines.
type Request struct {
	// Fig/Table select one figure (6..12) or table (1..2); both zero
	// renders everything, exactly like janus-bench.
	Fig   int `json:"fig,omitempty"`
	Table int `json:"table,omitempty"`
	// Threads and Jobs mirror harness.Options (zero = defaults).
	Threads int `json:"threads,omitempty"`
	Jobs    int `json:"jobs,omitempty"`
	// SingleGoroutine forces the round-robin region engine; rendered
	// bytes are identical either way.
	SingleGoroutine bool `json:"single_goroutine,omitempty"`
	// Inject arms region-level fault injection inside this request's
	// renders (spec grammar of janus-bench -inject).
	Inject string `json:"inject,omitempty"`
	// DeadlineMS bounds queue wait + render; past it the job fails with
	// a typed deadline error. Zero inherits Config.DefaultDeadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// options translates the request into per-run harness options.
func (r Request) options(cacheDir string, rec *harness.RecoveryLog, onProgress func(harness.ProgressEvent)) (harness.Options, error) {
	o := harness.DefaultOptions()
	if r.Threads > 0 {
		o.Threads = r.Threads
	}
	if r.Jobs > 0 {
		o.Jobs = r.Jobs
	}
	o.SingleGoroutine = r.SingleGoroutine
	o.CacheDir = cacheDir
	o.Recovery = rec
	o.OnProgress = onProgress
	if r.Inject != "" {
		plan, err := faultinject.ParsePlan(r.Inject)
		if err != nil {
			return o, err
		}
		o.Inject = plan
	}
	return o, nil
}

// Error kinds carried by Response.ErrKind. Every failed request is
// classified into exactly one of these, so clients can branch without
// parsing message strings.
const (
	KindBadRequest = "bad-request" // malformed request (400)
	KindShed       = "shed"        // load shed at admission (429)
	KindDraining   = "draining"    // daemon is draining (503)
	KindDeadline   = "deadline"    // per-request deadline expired (504)
	KindCanceled   = "canceled"    // cancelled (drain hard-stop) (499→500)
	KindPanic      = "panic"       // handler panic, contained (500)
	KindRender     = "render"      // the harness itself errored (500)
	KindNotFound   = "not-found"   // unknown job ID (404)
)

// Response is the terminal state of a job.
type Response struct {
	ID      string `json:"id"`
	State   string `json:"state"` // "queued", "running", "done", "failed"
	Output  string `json:"output,omitempty"`
	Err     string `json:"err,omitempty"`
	ErrKind string `json:"err_kind,omitempty"`
	// Recoveries/Demoted surface the request's speculation-recovery
	// counters (nonzero under region-level injection).
	Recoveries int64 `json:"recoveries,omitempty"`
	Demoted    int64 `json:"demoted,omitempty"`
	ElapsedMS  int64 `json:"elapsed_ms"`
}

// Failed reports whether the response is a typed failure.
func (r *Response) Failed() bool { return r.ErrKind != "" }

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Job is one admitted request.
type Job struct {
	ID  string
	Req Request

	mu     sync.Mutex
	cond   *sync.Cond
	state  string
	events []string
	res    *Response

	ctx      context.Context
	cancel   context.CancelFunc
	accepted time.Time

	// armed service faults (at most one; decided at admission).
	injPanic, injStall, injSlow bool
}

func newJob(id string, req Request, ctx context.Context, cancel context.CancelFunc) *Job {
	j := &Job{ID: id, Req: req, state: StateQueued, ctx: ctx, cancel: cancel, accepted: time.Now()}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// State returns the job's current state.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (j *Job) setState(s string) {
	j.mu.Lock()
	j.state = s
	j.cond.Broadcast()
	j.mu.Unlock()
	j.event("state " + s)
}

// event appends one progress line and wakes streamers.
func (j *Job) event(line string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.events) < 16384 { // bound a pathological streamer
		j.events = append(j.events, line)
	}
	j.cond.Broadcast()
}

// finish publishes the terminal response exactly once.
func (j *Job) finish(res *Response) {
	res.ElapsedMS = time.Since(j.accepted).Milliseconds()
	res.ID = j.ID
	if res.Failed() {
		res.State = StateFailed
	} else {
		res.State = StateDone
	}
	j.cancel()
	// The terminal event is appended in the same critical section that
	// publishes res: a streamer that observes the job finished must
	// also observe its last line.
	j.mu.Lock()
	if j.res == nil {
		j.res = res
		j.state = res.State
	}
	j.events = append(j.events, "state "+res.State)
	j.cond.Broadcast()
	j.mu.Unlock()
}

// Wait blocks until the job finishes or ctx is done, returning the
// terminal response.
func (j *Job) Wait(ctx context.Context) (*Response, error) {
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			j.mu.Lock()
			j.cond.Broadcast()
			j.mu.Unlock()
		})
		defer stop()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.res == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		j.cond.Wait()
	}
	return j.res, nil
}

// Events streams progress lines to yield, starting from the first,
// until the job finishes, yield returns false, or ctx is done.
func (j *Job) Events(ctx context.Context, yield func(line string) bool) {
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			j.mu.Lock()
			j.cond.Broadcast()
			j.mu.Unlock()
		})
		defer stop()
	}
	i := 0
	for {
		j.mu.Lock()
		for i >= len(j.events) && j.res == nil && ctx.Err() == nil {
			j.cond.Wait()
		}
		lines := j.events[i:]
		i = len(j.events)
		done := j.res != nil
		j.mu.Unlock()
		for _, l := range lines {
			if !yield(l) {
				return
			}
		}
		if done || ctx.Err() != nil {
			return
		}
	}
}

// Server is one daemon instance. Create with New, serve with Serve,
// stop with Drain (graceful) or Close (hard).
type Server struct {
	cfg  Config
	pool *pool.Pool

	injMu sync.Mutex
	inj   *faultinject.Injector

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string // finish order, for bounded retention
	nextID   atomic.Int64

	draining atomic.Bool
	inflight sync.WaitGroup

	baseCtx    context.Context
	baseCancel context.CancelFunc

	http    *http.Server
	cache   *artcache.Cache // cfg.CacheDir's handle, for statusz
	started time.Time

	served atomic.Int64 // jobs admitted over the server's lifetime
	shed   atomic.Int64 // submissions rejected with KindShed
}

// New returns an idle daemon; Serve starts it on a listener.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		pool:       pool.New(cfg.Workers, cfg.QueueDepth),
		inj:        faultinject.NewInjector(cfg.Inject),
		jobs:       map[string]*Job{},
		baseCtx:    ctx,
		baseCancel: cancel,
		started:    time.Now(),
	}
	if cfg.CacheDir != "" {
		// Same handle the harness opens (OpenShared dedups per dir), so
		// statusz reports the counters requests actually increment.
		if c, err := artcache.OpenShared(cfg.CacheDir); err == nil {
			s.cache = c
		} else {
			// Degrade once, here and visibly: requests render uncached
			// instead of each failing on the same open error.
			cfg.Log.Printf("janusd: cache %s unavailable, serving uncached: %v", cfg.CacheDir, err)
			s.cfg.CacheDir = ""
		}
	}
	s.pool.OnPanic = func(v any, stack []byte) {
		// Backstop only: runJob contains its own panics into structured
		// responses. Reaching here means the containment glue itself
		// broke; log loudly but keep the worker.
		cfg.Log.Printf("janusd: pool backstop caught panic: %v\n%s", v, stack)
	}
	s.http = &http.Server{Handler: s.Handler()}
	return s
}

// errDraining is the typed submit error the HTTP layer maps to
// KindDraining.
var errDraining = errors.New("janusd: draining, not accepting work")

// Submit admits req as a job, or fails fast: pool.ErrOverloaded when
// the admission bound is hit (shed), errDraining during drain, or a
// validation error.
func (s *Server) Submit(req Request) (*Job, error) {
	if s.draining.Load() {
		return nil, errDraining
	}
	// Validate the region-level inject spec before admission so a bad
	// request never occupies a pool slot.
	if req.Inject != "" {
		if _, err := faultinject.ParsePlan(req.Inject); err != nil {
			return nil, err
		}
	}
	deadline := time.Duration(req.DeadlineMS) * time.Millisecond
	if deadline <= 0 {
		deadline = s.cfg.DefaultDeadline
	}
	ctx := s.baseCtx
	var cancel context.CancelFunc
	if deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, deadline)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}

	id := fmt.Sprintf("job-%d", s.nextID.Add(1))
	j := newJob(id, req, ctx, cancel)

	// Service-level injection: the Arm/Fire pair is serialised here so
	// the n-th admitted job is the armed one, deterministically.
	s.injMu.Lock()
	s.inj.Arm()
	j.injPanic = s.inj.Fire(faultinject.HandlerPanic)
	j.injStall = s.inj.Fire(faultinject.QueueStall)
	j.injSlow = s.inj.Fire(faultinject.SlowWorker)
	s.injMu.Unlock()

	s.mu.Lock()
	s.jobs[id] = j
	s.mu.Unlock()

	s.inflight.Add(1)
	if err := s.pool.Submit(func() { s.runJob(j) }); err != nil {
		s.inflight.Done()
		cancel()
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		if errors.Is(err, pool.ErrOverloaded) {
			s.shed.Add(1)
		}
		if errors.Is(err, pool.ErrClosed) {
			return nil, errDraining
		}
		return nil, err
	}
	s.served.Add(1)
	j.event(fmt.Sprintf("accepted %s", id))
	s.cfg.Log.Printf("janusd: %s accepted (queued %d, running %d)", id, s.pool.Queued(), s.pool.Running())
	return j, nil
}

// Job returns a live or retained job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// runJob executes one admitted job on a pool worker. Every exit path
// publishes a terminal Response; a panic anywhere in the render is
// contained into a structured failure and the worker survives.
func (s *Server) runJob(j *Job) {
	defer s.inflight.Done()
	defer s.retire(j.ID)
	defer func() {
		if v := recover(); v != nil {
			s.cfg.Log.Printf("janusd: %s panicked: %v", j.ID, v)
			j.finish(&Response{
				Err:     fmt.Sprintf("panic: %v", v),
				ErrKind: KindPanic,
			})
		}
	}()

	if j.injStall {
		// The job wedges while still queued: deadline and shedding
		// behaviour under a stalled dispense path.
		j.event("fault: queue-stall")
		s.sleep(j.ctx, s.cfg.StallDelay)
	}
	if err := j.ctx.Err(); err != nil {
		j.finish(classify(fmt.Errorf("expired before start: %w", err), err))
		return
	}
	j.setState(StateRunning)
	if j.injSlow {
		j.event("fault: slow-worker")
		s.sleep(j.ctx, s.cfg.StallDelay)
		// Re-check after the stall: a job whose deadline passed (or that
		// was cancelled by a hard drain) must report the typed error, not
		// limp into a render under a dead context.
		if err := j.ctx.Err(); err != nil {
			j.finish(classify(fmt.Errorf("expired mid-execution: %w", err), err))
			return
		}
	}
	if j.injPanic {
		panic("faultinject: handler-panic")
	}

	rec := &harness.RecoveryLog{}
	opts, err := j.Req.options(s.cfg.CacheDir, rec, func(ev harness.ProgressEvent) {
		switch ev.State {
		case "row":
			j.event(fmt.Sprintf("rows %d", ev.Rows))
		case "failed":
			j.event(fmt.Sprintf("%s %s: %s", ev.Experiment, ev.State, firstLine(ev.Err)))
		default:
			j.event(fmt.Sprintf("%s %s", ev.Experiment, ev.State))
		}
	})
	if err != nil {
		j.finish(&Response{Err: err.Error(), ErrKind: KindBadRequest})
		return
	}

	out, err := harness.RenderAllContext(j.ctx, opts, j.Req.Fig, j.Req.Table)
	res := &Response{
		Output:     out,
		Recoveries: rec.ParRecoveries.Load(),
		Demoted:    rec.DemotedLoops.Load(),
	}
	if err != nil {
		c := classify(err, j.ctx.Err())
		c.Output, c.Recoveries, c.Demoted = res.Output, res.Recoveries, res.Demoted
		res = c
	}
	j.finish(res)
}

// retire bounds the finished-job registry.
func (s *Server) retire(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, id)
	for len(s.finished) > s.cfg.KeepJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// classify maps a render/lifecycle error to a typed failure response.
// ctxErr is the job context's error (nil if the context is live).
func classify(err, ctxErr error) *Response {
	kind := KindRender
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(ctxErr, context.DeadlineExceeded):
		kind = KindDeadline
	case errors.Is(err, context.Canceled) || errors.Is(ctxErr, context.Canceled):
		kind = KindCanceled
	case errors.Is(err, harness.ErrCanceled):
		kind = KindCanceled
	}
	return &Response{Err: firstLine(err.Error()), ErrKind: kind}
}

// sleep waits for d or ctx, whichever ends first.
func (s *Server) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Draining reports whether the daemon has stopped accepting work.
func (s *Server) Draining() bool { return s.draining.Load() }

// Stats is the statusz snapshot.
type Stats struct {
	PID      int   `json:"pid"`
	UptimeMS int64 `json:"uptime_ms"`
	Cap      int   `json:"cap"`
	Queued   int   `json:"queued"`
	Running  int   `json:"running"`
	Idle     int   `json:"idle"`
	Served   int64 `json:"served"`
	Shed     int64 `json:"shed"`
	Draining bool  `json:"draining"`
	// Cache counters from the daemon's artifact cache (zero values
	// when the daemon runs cacheless). CacheBad counts entries
	// rejected by verification — the replica-sharing tests assert it
	// stays zero.
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
	CacheBad    int64 `json:"cache_bad,omitempty"`
	// CacheKinds splits hits and misses by artifact kind (ident-v1,
	// schedule-v1, native-v1, profile-v1, dbm-v2), with each stage's
	// memory-tier hits and computations since the process started:
	// which stages requests replayed, from where, and which they
	// recomputed. "build" is the builds assembled, which are not stored.
	CacheKinds map[string]artcache.KindStats `json:"cache_kinds,omitempty"`
	// FreeLists counts the page blocks and dependence tables renders
	// allocated fresh and took recycled since the process started.
	FreeLists harness.FreeLists `json:"free_lists"`
}

// Snapshot returns current daemon stats.
func (s *Server) Snapshot() Stats {
	var cs artcache.Stats
	if s.cache != nil {
		cs = s.cache.Stats()
	}
	cs = cs.WithTiers(harness.TierStats())
	return Stats{
		CacheHits:   cs.Hits,
		CacheMisses: cs.Misses,
		CacheBad:    cs.BadEntries,
		CacheKinds:  cs.Kinds,
		FreeLists:   harness.FreeListStats(),
		PID:         os.Getpid(),
		UptimeMS:    time.Since(s.started).Milliseconds(),
		Cap:         s.pool.Cap(),
		Queued:      s.pool.Queued(),
		Running:     s.pool.Running(),
		Idle:        s.pool.Idle(),
		Served:      s.served.Load(),
		Shed:        s.shed.Load(),
		Draining:    s.draining.Load(),
	}
}

// firstLine trims err text to its first line (stacks stay in the log).
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
