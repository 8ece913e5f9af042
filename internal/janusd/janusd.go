// Package janusd is the analysis-as-a-service layer: a long-lived
// daemon that serves the whole build → profile → analyze →
// parallelise → simulate pipeline over HTTP/JSON. Each admitted
// request becomes a job on its own goroutine, admitted by a count of
// unfinished jobs and run when it takes one of Workers slots; each job
// carries its own harness.Options, gets an ID, and renders
// byte-identically to janus-bench, so the golden fixture pins the
// service path too.
//
// Robustness is the point of the package:
//
//   - per-request deadlines propagate as context cancellation into the
//     harness scheduler, so an expired job aborts its pending rows
//     instead of running the suite to completion, and a queued job's
//     deadline ends its wait for a slot;
//   - submissions beyond the admission bound (Workers+QueueDepth
//     unfinished jobs) are shed with
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
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"janus"
	"janus/internal/artcache"
	"janus/internal/faultinject"
	"janus/internal/harness"
	"janus/internal/workloads"
)

// Config configures one daemon instance.
type Config struct {
	// Workers bounds how many jobs render concurrently (the run slots).
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
	if c.Log == nil {
		c.Log = log.New(io.Discard, "", 0)
	}
	return c
}

// Request is one pipeline render request: the harness.Options a
// janus-bench invocation would build from its flags, plus a deadline.
// The zero value renders the full suite with default engines.
type Request struct {
	// Fig/Table select one figure (6..12) or table (1..2); both zero
	// renders everything, exactly like janus-bench. Any other value is
	// refused before admission.
	Fig   int `json:"fig,omitempty"`
	Table int `json:"table,omitempty"`
	// Threads mirrors harness.Options (zero = default). Above
	// maxThreads it is refused before admission.
	Threads int `json:"threads,omitempty"`
	// Inject arms region-level fault injection inside this request's
	// renders (spec grammar of janus-bench -inject).
	Inject string `json:"inject,omitempty"`
	// DeadlineMS bounds queue wait + render; past it the job fails with
	// a typed deadline error. Zero inherits Config.DefaultDeadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// maxThreads bounds Request.Threads: the DBM allocates one record per
// guest thread, so outside input may not size that freely. It is eight
// times the paper's eight-thread machine.
const maxThreads = 64

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
)

// Response is the terminal state of a job.
type Response struct {
	ID      string `json:"id"`
	State   string `json:"state"` // StateDone or StateFailed
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

// Terminal job states.
const (
	StateDone   = "done"
	StateFailed = "failed"
)

// Job is one admitted request.
type Job struct {
	ID  string
	Req Request

	once sync.Once
	done chan struct{} // closed once res is published
	res  *Response

	ctx      context.Context
	cancel   context.CancelFunc
	accepted time.Time

	// armed service faults (at most one; decided at admission).
	injPanic, injStall, injSlow bool
	// inject is Req.Inject, parsed at admission.
	inject *faultinject.Plan
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
	j.once.Do(func() {
		j.res = res
		close(j.done)
	})
}

// Wait blocks until the job finishes or ctx is done, returning the
// terminal response.
func (j *Job) Wait(ctx context.Context) (*Response, error) {
	select {
	case <-j.done:
		return j.res, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Server is one daemon instance. Create with New, serve with Serve,
// stop with Drain (graceful) or Close (hard).
type Server struct {
	cfg Config

	// slots holds one token per running job; a job takes one before it
	// starts and gives it back when it ends, so at most Workers run.
	slots chan struct{}

	// mu serialises admission: the draining check, the injection
	// arming, the admission bound and inflight.Add happen under it, so
	// Drain's inflight.Wait never races an Add.
	mu         sync.Mutex
	draining   bool // set by Drain or Close; refuses every later submission
	inj        *faultinject.Injector
	unfinished int   // admitted jobs not yet retired, queued or running
	admitted   int64 // jobs admitted over the server's lifetime; the last ID
	shed       int64 // submissions rejected with KindShed

	inflight sync.WaitGroup

	baseCtx    context.Context
	baseCancel context.CancelFunc

	http *http.Server
	// silent holds the connections that have sent no request yet
	// (http.StateNew); once closeSilent is set, Drain has closed them and
	// the state hook closes every later one as it arrives.
	connMu      sync.Mutex
	silent      map[net.Conn]struct{}
	closeSilent bool

	cache   *artcache.Cache // cfg.CacheDir's handle, for statusz's bad entries
	session *janus.Session  // the memoised stages every job renders through
	started time.Time
}

// New returns an idle daemon; Serve starts it on a listener.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		slots:      make(chan struct{}, cfg.Workers),
		inj:        faultinject.NewInjector(cfg.Inject),
		baseCtx:    ctx,
		baseCancel: cancel,
		session:    janus.NewSession(workloads.NewMemo()),
		silent:     map[net.Conn]struct{}{},
		started:    time.Now(),
	}
	if cfg.CacheDir != "" {
		// Same handle the harness opens (OpenShared dedups per dir), so
		// statusz reports the bad entries requests actually meet.
		if c, err := artcache.OpenShared(cfg.CacheDir); err == nil {
			s.cache = c
		} else {
			// Degrade once, here and visibly: requests render uncached
			// instead of each failing on the same open error.
			cfg.Log.Printf("janusd: cache %s unavailable, serving uncached: %v", cfg.CacheDir, err)
			s.cfg.CacheDir = ""
		}
	}
	s.http = &http.Server{Handler: s.Handler(), ConnState: s.trackConn}
	return s
}

// trackConn is the HTTP server's connection-state hook: it keeps the
// set of connections that have sent no request yet.
func (s *Server) trackConn(c net.Conn, state http.ConnState) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	switch {
	case state != http.StateNew:
		delete(s.silent, c)
	case s.closeSilent:
		c.Close()
	default:
		s.silent[c] = struct{}{}
	}
}

// Typed submit errors; the HTTP layer maps them to KindDraining and
// KindShed.
var (
	errDraining = errors.New("janusd: draining, not accepting work")
	errShed     = errors.New("janusd: queue full")
)

// Submit admits req as a job, or fails fast: errShed when
// Workers+QueueDepth jobs are unfinished, errDraining during drain, or
// a validation error.
func (s *Server) Submit(req Request) (*Job, error) {
	// Validate the selection and the region-level inject spec before
	// admission so a bad request never counts against the bound.
	if _, err := harness.Experiments(req.Fig, req.Table); err != nil {
		return nil, err
	}
	if req.Threads > maxThreads {
		return nil, fmt.Errorf("janusd: %d threads requested, at most %d", req.Threads, maxThreads)
	}
	var inject *faultinject.Plan
	if req.Inject != "" {
		var err error
		if inject, err = faultinject.ParsePlan(req.Inject); err != nil {
			return nil, err
		}
	}
	deadline := time.Duration(req.DeadlineMS) * time.Millisecond
	if deadline <= 0 {
		deadline = s.cfg.DefaultDeadline
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errDraining
	}
	// Service-level injection is armed per submission, in submission
	// order, so the n-th submission is the armed one deterministically.
	s.inj.Arm()
	injPanic := s.inj.Fire(faultinject.HandlerPanic)
	injStall := s.inj.Fire(faultinject.QueueStall)
	injSlow := s.inj.Fire(faultinject.SlowWorker)
	if s.unfinished >= s.cfg.Workers+s.cfg.QueueDepth {
		s.shed++
		s.mu.Unlock()
		return nil, errShed
	}
	s.unfinished++
	s.admitted++
	var ctx context.Context
	var cancel context.CancelFunc
	if deadline > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, deadline)
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	j := &Job{
		ID: fmt.Sprintf("job-%d", s.admitted), Req: req,
		done: make(chan struct{}), ctx: ctx, cancel: cancel, accepted: time.Now(),
		injPanic: injPanic, injStall: injStall, injSlow: injSlow, inject: inject,
	}
	s.inflight.Add(1)
	running, queued := s.loadLocked()
	s.mu.Unlock()

	go s.runJob(j)
	s.cfg.Log.Printf("janusd: %s accepted (queued %d, running %d)", j.ID, queued, running)
	return j, nil
}

// loadLocked returns how many unfinished jobs hold a slot and how many
// wait for one. s.mu must be held: a job takes its slot after it is
// counted and gives it back before it is retired, so under the lock
// running never exceeds unfinished.
func (s *Server) loadLocked() (running, queued int) {
	running = len(s.slots)
	return running, s.unfinished - running
}

// runJob is an admitted job's goroutine: it waits for a slot (or its
// deadline), runs the job, and retires it. The one recover, deferred
// before anything else that can panic, turns a panic anywhere in the
// job — its slot release and retire included — into a structured
// failure, so no job can take the daemon down.
func (s *Server) runJob(j *Job) {
	defer s.inflight.Done()
	defer func() {
		if v := recover(); v != nil {
			s.cfg.Log.Printf("janusd: %s panicked: %v", j.ID, v)
			j.finish(&Response{
				Err:     fmt.Sprintf("panic: %v", v),
				ErrKind: KindPanic,
			})
		}
	}()
	defer s.retire()

	select {
	case s.slots <- struct{}{}:
	case <-j.ctx.Done():
		err := j.ctx.Err()
		j.finish(classify(fmt.Errorf("expired while queued: %w", err), err))
		return
	}
	defer func() { <-s.slots }()
	s.run(j)
}

// run executes a job that holds a slot. Every exit path publishes a
// terminal Response.
func (s *Server) run(j *Job) {
	if j.injStall {
		// The job wedges between taking its slot and starting: deadline
		// and shedding behaviour under a stalled dispense path.
		s.sleep(j.ctx, s.cfg.StallDelay)
	}
	if err := j.ctx.Err(); err != nil {
		j.finish(classify(fmt.Errorf("expired before start: %w", err), err))
		return
	}
	if j.injSlow {
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

	// The request as harness options, its Inject spec parsed at admission.
	rec := &harness.RecoveryLog{}
	opts := harness.DefaultOptions()
	if j.Req.Threads > 0 {
		opts.Threads = j.Req.Threads
	}
	opts.Inject, opts.CacheDir, opts.Recovery, opts.Session = j.inject, s.cfg.CacheDir, rec, s.session
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

// retire frees the job's place under the admission bound.
func (s *Server) retire() {
	s.mu.Lock()
	s.unfinished--
	s.mu.Unlock()
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
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Stats is the statusz snapshot.
type Stats struct {
	PID      int   `json:"pid"`
	UptimeMS int64 `json:"uptime_ms"`
	Cap      int   `json:"cap"`
	Queued   int   `json:"queued"`
	Running  int   `json:"running"`
	Served   int64 `json:"served"`
	Shed     int64 `json:"shed"`
	Draining bool  `json:"draining"`
	// Cache counters (zero values when the daemon runs cacheless):
	// CacheHits and CacheMisses are this server's own lookups in its
	// artifact cache, which other servers and processes may share.
	// CacheBad is the store's count of entries rejected by verification
	// — the replica-sharing tests assert it stays zero.
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
	CacheBad    int64 `json:"cache_bad,omitempty"`
	// CacheKinds splits this server's hits and misses by artifact kind
	// (ident-v2, schedule-v1, native-v2, profile-v1, dbm-v3), with each
	// stage's memory-tier hits and computations since it started: which
	// stages requests replayed, from where, and which they recomputed.
	// "build" is the builds assembled, which are not stored.
	CacheKinds map[string]artcache.KindStats `json:"cache_kinds,omitempty"`
	// FreeLists counts the page blocks, page-table leaves, dependence
	// tables and DBM thread records renders allocated fresh and took
	// recycled since the process started.
	FreeLists harness.FreeLists `json:"free_lists"`
}

// Snapshot returns current daemon stats.
func (s *Server) Snapshot() Stats {
	var bad int64
	if s.cache != nil {
		bad = s.cache.Stats().BadEntries
	}
	// The store's hit and miss counters are the directory's, shared by
	// every server in the process that opened it; the session's tiers
	// count this server's own.
	tiers := s.session.TierStats()
	kinds := make(map[string]artcache.KindStats, len(tiers))
	var hits, misses int64
	for kind, ts := range tiers {
		kinds[kind] = artcache.KindStats{Hits: ts.StoreHits, Misses: ts.StoreMisses, TierStats: ts}
		hits += ts.StoreHits
		misses += ts.StoreMisses
	}
	s.mu.Lock()
	running, queued := s.loadLocked()
	served, shed, draining := s.admitted, s.shed, s.draining
	s.mu.Unlock()
	return Stats{
		CacheHits:   hits,
		CacheMisses: misses,
		CacheBad:    bad,
		CacheKinds:  kinds,
		FreeLists:   harness.FreeListStats(),
		PID:         os.Getpid(),
		UptimeMS:    time.Since(s.started).Milliseconds(),
		Cap:         s.cfg.Workers,
		Queued:      queued,
		Running:     running,
		Served:      served,
		Shed:        shed,
		Draining:    draining,
	}
}

// firstLine trims err text to its first line (stacks stay in the log).
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
