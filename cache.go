package janus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"janus/internal/analyzer"
	"janus/internal/artcache"
	"janus/internal/dbm"
	"janus/internal/obj"
	"janus/internal/rules"
	"janus/internal/vm"
	"janus/internal/workloads"
)

// Cached stages. Native execution, the training profile, the train
// analysis, the plan (analysis → training → selection → rewrite
// schedule) and a DBM run are deterministic functions of the binary
// (plus schedule and configuration), and the evaluation harness asks
// for the same ones many times: figure 9 alone replays one binary at
// eight thread counts, and with the experiment scheduler several rows
// ask concurrently. Each stage is therefore one artcache.Tier — memory
// singleflight → disk → compute → publish — owned by a Session, and
// this file only declares what distinguishes them: the memory key, the
// disk key and the payload codec.
//
// Every stage takes the binary as an *obj.Binary handle. The handle
// pointer is the memory key (a session hands out one handle per build
// and per resident image, so a pointer never aliases two programs); the
// handle's ID — recorded beside a stored build, or hashed once from a
// resident image — is the content identity in every disk key; and the
// image is asked for only inside a computation, so a stage replayed
// from the store never loads it. The disk tier is Config.Cache; nil
// leaves the memory tier alone and never derives a disk key.
//
// Every memory key names exactly what its disk key names, so a render
// with the cache off computes precisely the artifacts a cold one
// stores, and a second render in the same session computes nothing.
//
//	Session   stage            memory key                  disk
//	builds    registry build   (name, input, opt)          ident-v1: identity and code
//	                                                       size (internal/workloads)
//	handles   resident image   (exe, libs) pointers        —
//	native    native baseline  handle                      native-v1
//	profile   train profile    handle                      profile-v1
//	analyze   train analysis   handle                      —  (a live CFG/SSA graph)
//	plans     plan             ref, train, Selection.Key   schedule-v1: a hit skips
//	                                                       analysis, profile and image
//	runs      DBM run          handle, digest, dbm.Config  dbm-v3 (dbm.EncodeResult)
//
// The compiler models (internal/compilers) are clients of plans and
// runs under their own selection and cost model.

// memoLimit bounds the memory tiers a render holds at most one entry
// per binary in (the harness working set is far smaller).
const memoLimit = 64

// libsKey folds a library pointer set into a comparable key.
type libsKey [4]*obj.Library

// libsKeyOf reports ok=false for a set too large to key; BinaryOf then
// hands out a fresh handle instead of aliasing keys.
func libsKeyOf(libs []*obj.Library) (libsKey, bool) {
	var k libsKey
	if len(libs) > len(k) {
		return k, false
	}
	copy(k[:], libs)
	return k, true
}

// runKey identifies a resident image: the executable pointer plus the
// library set.
type runKey struct {
	exe  *obj.Executable
	libs libsKey
}

// handleLimit bounds the handle, plan and DBM tiers. It sits
// above the 70 binaries a full-suite render derives keys for, its 88
// plans and its 127 runs, so a long-lived process never wraps a bound
// and recomputes its working set.
const handleLimit = 4 * memoLimit

// Session owns the memory tier of every cached stage, each with its
// bound: its stage tiers, and the build tiers of the workloads.Memo it
// was made over. Sessions share nothing else but the durable store and
// the free lists. A nil *Session is the process default; ResetMemos
// renews its stage tiers and workloads.ResetBuildCache its build tiers.
type Session struct {
	// handles rests on the contract of every pointer-keyed tier here:
	// executables and libraries are never mutated after construction.
	// A handle describes an executable *and* a library set, so it lives
	// beside the binary, and keeps it reachable: hence the bound.
	handles artcache.Tier[runKey, *obj.Binary]
	native  artcache.Tier[*obj.Binary, *vm.Result]
	analyze artcache.Tier[*obj.Binary, *analyzer.Program]
	// profile is keyed by the binary alone: every Program reaching it is
	// a fresh analysis of that binary, so the plans that train on one
	// build — under the memoised train analysis or, figure 6, under the
	// build's own — share one profile.
	profile artcache.Tier[*obj.Binary, *ProfileResult]
	plans   artcache.Tier[planKey, *Plan]
	// runs answers, beneath the harness's per-render run table, distinct
	// runs whose schedules hash equal and every later render's. v2: v1
	// results of binaries with a vector register live into a parallel
	// loop carry the DataHash of a run that dropped it. v3: binary words.
	runs   artcache.Tier[dbmKey, *dbm.Result]
	builds *workloads.Memo
}

// NewSession returns a session with empty stage tiers over builds, the
// build tiers it shares with every session given the same memo; nil is
// the process default's (workloads.Default).
func NewSession(builds *workloads.Memo) *Session {
	return &Session{
		handles: artcache.Tier[runKey, *obj.Binary]{Limit: handleLimit},
		native:  artcache.Tier[*obj.Binary, *vm.Result]{Kind: "native-v1", Limit: memoLimit, Encode: vm.EncodeResult, Decode: vm.DecodeResult},
		analyze: artcache.Tier[*obj.Binary, *analyzer.Program]{Limit: memoLimit},
		profile: artcache.Tier[*obj.Binary, *ProfileResult]{Kind: "profile-v1", Limit: memoLimit, Encode: encodeProfile, Decode: decodeProfile},
		plans:   artcache.Tier[planKey, *Plan]{Kind: "schedule-v1", Limit: handleLimit, Encode: encodePlan, Decode: decodePlan},
		runs:    artcache.Tier[dbmKey, *dbm.Result]{Kind: "dbm-v3", Limit: handleLimit, Encode: dbm.EncodeResult, Decode: dbm.DecodeResult},
		builds:  builds,
	}
}

// process is the session every caller that names none works in.
var process atomic.Pointer[Session]

func init() { process.Store(NewSession(nil)) }

// orDefault resolves a nil session to the process default.
func (s *Session) orDefault() *Session {
	if s == nil {
		return process.Load()
	}
	return s
}

// ResetMemos empties the process default's stage tiers, handles
// included; computations in flight finish into the old ones.
func ResetMemos() { process.Store(NewSession(nil)) }

// TierStats reports the session's tier counters by artifact kind —
// memory hits, computations and its own store lookups — assemblies
// under "build" (artcache.Stats.WithTiers sets them beside the store's).
func (s *Session) TierStats() map[string]artcache.TierStats {
	s = s.orDefault()
	out := s.memo().TierStats()
	out[s.native.Kind] = s.native.Stats()
	out[s.profile.Kind] = s.profile.Stats()
	out[s.plans.Kind] = s.plans.Stats()
	out[s.runs.Kind] = s.runs.Stats()
	return out
}

// memo is the session's build memory.
func (s *Session) memo() *workloads.Memo {
	if s.builds == nil {
		return workloads.Default()
	}
	return s.builds
}

// Open is workloads.Memo.Open in the session's build tiers.
func (s *Session) Open(c *artcache.Cache, name string, in workloads.Input, opt workloads.OptLevel) (*obj.Binary, error) {
	return s.orDefault().memo().Open(c, name, in, opt)
}

// BinaryOf is the process default's BinaryOf.
func BinaryOf(exe *obj.Executable, libs ...*obj.Library) *obj.Binary {
	return process.Load().BinaryOf(exe, libs...)
}

// BinaryOf returns the handle of a resident image: the same one for the
// same executable pointer and library set, so the (exe, libs...) entry
// points share memory tiers and hash each binary at most once. A set of
// more than four libraries is too wide to key and gets a fresh handle
// per call, which no later call can share a memoised stage with.
func (s *Session) BinaryOf(exe *obj.Executable, libs ...*obj.Library) *obj.Binary {
	lk, ok := libsKeyOf(libs)
	if !ok {
		return obj.NewBinary(exe, libs...)
	}
	b, _ := s.orDefault().handles.Do(nil, runKey{exe: exe, libs: lk}, nil, func() (*obj.Binary, error) {
		return obj.NewBinary(exe, libs...), nil
	})
	return b
}

// errStaleIdentity fails a computation that was keyed by a recorded
// identity its binary turned out not to have.
var errStaleIdentity = errors.New("janus: artifact keyed by a stale binary identity")

// staged is the lookup of every stage keyed by binary identities: t's
// memory tier under memKey, then t.Disk under key(ids of bins),
// computing on a miss. A lazy handle's identity is a record, re-checked
// when compute materialises the image; if that corrected any of bins,
// the result belongs under another key — publishing it here would plant
// one binary's artifact under another's identity — so it is dropped and
// the disk lookup repeated under the identities the images really have.
func staged[K comparable, V any](t *artcache.Tier[K, V], c *artcache.Cache, memKey K, bins []*obj.Binary, key func(ids []string) artcache.Key, compute func() (V, error)) (V, error) {
	return t.Memo(memKey, func() (V, error) {
		ids := func() []string {
			out := make([]string, len(bins))
			for i, b := range bins {
				out[i] = b.ID()
			}
			return out
		}
		lookup := func() (V, error) {
			var keyed []string
			return t.Disk(c, func() (artcache.Key, bool) {
				keyed = ids()
				return key(keyed), true
			}, func() (V, error) {
				v, err := compute()
				if err == nil && keyed != nil && !slices.Equal(keyed, ids()) {
					err = errStaleIdentity
				}
				return v, err
			})
		}
		v, err := lookup()
		if errors.Is(err, errStaleIdentity) {
			v, err = lookup()
		}
		return v, err
	})
}

// started is a stage that runs on a goroutine of its own beside its
// caller. A caller starts one only for a stage that has to compute — a
// lookup that memory or the store answers is cheaper made in line than
// handed over — and defers wait before anything that can return or
// panic, so no goroutine outlives the call.
type started[V any] struct {
	done  chan struct{}
	val   V
	err   error
	panic any // what the stage panicked with, raised again by join
}

// start runs stage on a goroutine of its own.
func start[V any](stage func() (V, error)) *started[V] {
	st := &started[V]{done: make(chan struct{})}
	go func() {
		defer close(st.done)
		defer func() { st.panic = recover() }()
		st.val, st.err = stage()
	}()
	return st
}

// wait blocks until the stage, if one was started, has finished, and
// discards its outcome: what an error path that outranks it does.
func (st *started[V]) wait() {
	if st != nil {
		<-st.done
	}
}

// join returns the stage's result and raises on the caller's goroutine
// what it panicked with.
func (st *started[V]) join() (V, error) {
	<-st.done
	if st.panic != nil {
		panic(st.panic)
	}
	return st.val, st.err
}

// startNative starts bin's native baseline beside the caller, unless
// memory holds it: it returns nil then, and joinNative looks it up in
// line.
func (s *Session) startNative(c *artcache.Cache, bin *obj.Binary) *started[*vm.Result] {
	if s.native.Has(bin) {
		return nil
	}
	return start(func() (*vm.Result, error) { return s.runNativeBaseline(c, bin) })
}

// joinNative is bin's native baseline: st's result, or the lookup made
// now when none was started. Either way the native tier is asked once.
func (s *Session) joinNative(st *started[*vm.Result], c *artcache.Cache, bin *obj.Binary) (*vm.Result, error) {
	if st == nil {
		return s.runNativeBaseline(c, bin)
	}
	return st.join()
}

// binaryDiskKey is the disk key of a stage that depends on the binary
// alone.
func binaryDiskKey(ids []string) artcache.Key {
	return artcache.Key{Binary: ids[0]}
}

// runNativeBaseline is the native-baseline stage: bin runs natively at
// most once per handle even under concurrent callers, and not at all
// when c holds its result.
func (s *Session) runNativeBaseline(c *artcache.Cache, bin *obj.Binary) (*vm.Result, error) {
	return staged(&s.native, c, bin, []*obj.Binary{bin}, binaryDiskKey, func() (*vm.Result, error) {
		exe, libs, err := bin.Image()
		if err != nil {
			return nil, err
		}
		return vm.RunNative(exe, libs...)
	})
}

// RunNativeBaselineCached is RunNativeBaseline backed by a durable
// artifact cache (nil c degrades to the memory tier alone): exe runs
// natively at most once per (executable, libraries) even under
// concurrent callers.
func RunNativeBaselineCached(c *artcache.Cache, exe *obj.Executable, libs ...*obj.Library) (*vm.Result, error) {
	return process.Load().runNativeBaseline(c, BinaryOf(exe, libs...))
}

// runAnalyzeMemo returns the static analysis of bin, running it at
// most once per handle. The shared Program is read-only in the
// profiling path (GenProfileSchedule builds a fresh schedule; the
// Apply* mutators are only ever called on per-plan analyses).
func (s *Session) runAnalyzeMemo(bin *obj.Binary) (*analyzer.Program, error) {
	return s.analyze.Do(nil, bin, nil, func() (*analyzer.Program, error) {
		exe, _, err := bin.Image()
		if err != nil {
			return nil, err
		}
		return analyzer.Analyze(exe)
	})
}

// trainProfile is the training stage on a distinct train binary: its
// memoised analysis, then its profile under that analysis.
func (s *Session) trainProfile(c *artcache.Cache, train *obj.Binary) (*ProfileResult, error) {
	// Memoised: the train binary is re-analysed identically for every
	// plan that profiles it, and the profiling path never mutates the
	// Program.
	prog, err := s.runAnalyzeMemo(train)
	if err != nil {
		return nil, fmt.Errorf("janus: train analysis: %w", err)
	}
	pr, err := s.runProfiling(c, train, prog)
	if err != nil {
		return nil, fmt.Errorf("janus: profiling: %w", err)
	}
	return pr, nil
}

// runProfiling is the train-profile stage: the profile of bin is taken
// at most once per handle even under concurrent callers; prog, an
// unmodified analysis of bin, instruments the run when there is one.
func (s *Session) runProfiling(c *artcache.Cache, bin *obj.Binary, prog *analyzer.Program) (*ProfileResult, error) {
	return staged(&s.profile, c, bin, []*obj.Binary{bin}, binaryDiskKey, func() (*ProfileResult, error) {
		exe, libs, err := bin.Image()
		if err != nil {
			return nil, err
		}
		return RunProfiling(exe, prog, libs...)
	})
}

// RunProfilingCached is RunProfiling behind both tiers: the profile
// for exe is taken at most once per (executable, libraries) even under
// concurrent callers, and a replayed one equals a computed one. prog
// must be an unmodified analysis of exe.
func RunProfilingCached(c *artcache.Cache, exe *obj.Executable, prog *analyzer.Program, libs ...*obj.Library) (*ProfileResult, error) {
	return process.Load().runProfiling(c, BinaryOf(exe, libs...), prog)
}

// profilePayload is the disk form of a ProfileResult.
type profilePayload struct {
	Coverage     map[int]float64
	ExclCoverage map[int]float64
	AvgIters     map[int]float64
	Dependences  map[int]bool
}

func encodeProfile(pr *ProfileResult) ([]byte, error) {
	return json.Marshal(profilePayload{
		Coverage:     pr.Coverage,
		ExclCoverage: pr.ExclCoverage,
		AvgIters:     pr.AvgIters,
		Dependences:  pr.Dependences,
	})
}

func decodeProfile(data []byte) (*ProfileResult, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p profilePayload
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("janus: decode cached profile: %w", err)
	}
	return &ProfileResult{
		Coverage:     p.Coverage,
		ExclCoverage: p.ExclCoverage,
		AvgIters:     p.AvgIters,
		Dependences:  p.Dependences,
	}, nil
}

// dbmKey is what a DBM result is a function of: the binary, the
// schedule (by digest) and every Config field that can influence a
// Result. Inject and Profile are always zero in it, because injected
// and profiling runs never reach the tier.
type dbmKey struct {
	bin   *obj.Binary
	sched string
	cfg   dbm.Config
}

// scheduleDigest names a rewrite schedule by the SHA-256 of its
// serialised form, which is what keys a DBM result in memory and on
// disk. Plans carry theirs (plan.go); this is for the bytes at hand.
func scheduleDigest(img []byte) string {
	sum := sha256.Sum256(img)
	return hex.EncodeToString(sum[:])
}

// noSchedule is the digest of a bare run (no rewrite schedule).
const noSchedule = "none"

// dbmConfigKey is a dbmKey's configuration as the disk key spells it —
// engine-selection knobs included, which leave virtual cycles untouched
// but are attributed in Stats (HostParRegions, StealRegions). The
// spelling is that of
//
//	fmt.Sprintf("threads=%d parallel=%t hostpar=%t steal=%t miniter=%d maxsteps=%d cost=%+v", ...)
//
// built by appends, with the cost model's %+v taken once per distinct
// model.
func dbmConfigKey(c dbm.Config) string {
	b := make([]byte, 0, 256)
	b = append(b, "threads="...)
	b = strconv.AppendInt(b, int64(c.Threads), 10)
	b = append(b, " parallel="...)
	b = strconv.AppendBool(b, c.Parallel)
	b = append(b, " hostpar="...)
	b = strconv.AppendBool(b, c.HostParallel)
	b = append(b, " steal="...)
	b = strconv.AppendBool(b, c.WorkStealing)
	b = append(b, " miniter="...)
	b = strconv.AppendInt(b, c.MinIterPerThread, 10)
	b = append(b, " maxsteps="...)
	b = strconv.AppendInt(b, c.MaxSteps, 10)
	b = append(b, " cost="...)
	b = append(b, costKey(c.Cost)...)
	return string(b)
}

// costKeys memoises costKey: a process runs under a handful of cost
// models (the DBM's default, the compiler models' static one).
var costKeys sync.Map // dbm.CostModel → string

// costKey spells a cost model as %+v does.
func costKey(m dbm.CostModel) string {
	if s, ok := costKeys.Load(m); ok {
		return s.(string)
	}
	s := fmt.Sprintf("%+v", m)
	costKeys.Store(m, s)
	return s
}

// runDBM executes bin under the DBM and sched, the schedule digest
// names. Fault-injected runs bypass both tiers: their recovery counters
// must come from a real execution, and a plan's effect is not part of
// the key. Profiling runs go through the profile tier instead, and a
// schedule with no digest (unserialisable, hand-built plan) has nothing
// to be keyed by.
func (s *Session) runDBM(c *artcache.Cache, bin *obj.Binary, sched *rules.Schedule, digest string, dcfg dbm.Config) (*dbm.Result, error) {
	compute := func() (*dbm.Result, error) {
		exe, libs, err := bin.Image()
		if err != nil {
			return nil, err
		}
		ex, err := dbm.New(exe, sched, dcfg, libs...)
		if err != nil {
			return nil, err
		}
		defer ex.Close()
		return ex.Run()
	}
	if dcfg.Inject != nil || dcfg.Profile || digest == "" {
		return s.runs.Disk(nil, nil, compute)
	}
	return staged(&s.runs, c, dbmKey{bin, digest, dcfg}, []*obj.Binary{bin}, func(ids []string) artcache.Key {
		return artcache.Key{Binary: ids[0], Input: digest, Config: dbmConfigKey(dcfg)}
	}, compute)
}

// RunBareDBMBinary executes bin under the DBM with no rewrite schedule
// (the "DynamoRIO only" baseline of figure 7), replayed from c when it
// holds the run; nil c always executes.
func (s *Session) RunBareDBMBinary(c *artcache.Cache, bin *obj.Binary) (*dbm.Result, error) {
	return s.orDefault().runDBM(c, bin, nil, noSchedule, dbm.Config{Threads: 1, Cost: dbm.DefaultCost(), MaxSteps: vm.DefaultMaxSteps})
}

// RunBareDBMCached is the process default's RunBareDBMBinary over the
// handle BinaryOf memoises for exe and libs.
func RunBareDBMCached(c *artcache.Cache, exe *obj.Executable, libs ...*obj.Library) (*dbm.Result, error) {
	return process.Load().RunBareDBMBinary(c, BinaryOf(exe, libs...))
}
