package janus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"janus/internal/analyzer"
	"janus/internal/artcache"
	"janus/internal/dbm"
	"janus/internal/obj"
	"janus/internal/rules"
	"janus/internal/vm"
)

// Cached stages. Native execution, the training profile, the train
// analysis, the plan (analysis → training → selection → rewrite
// schedule) and a DBM run are deterministic functions of the binary
// (plus schedule and configuration), and the evaluation harness asks
// for the same ones many times: figure 9 alone replays one binary at
// eight thread counts, each replay needing the identical native result
// and plan, and with the experiment scheduler several rows ask
// concurrently. Each stage is therefore one artcache.Tier instance —
// memory singleflight → disk → compute → publish, written once in
// internal/artcache — and this file only declares what distinguishes
// them: the memory key, the disk key and the payload codec.
//
// Every stage takes the binary as an *obj.Binary handle. The handle
// pointer is the memory key (workloads.Open returns a stable handle per
// (name, input, opt), BinaryOf one per executable pointer, so a pointer
// can never alias two different programs); the handle's ID — recorded
// beside a stored build, or hashed once from a resident image — is the
// content identity in every disk key; and the image is asked for only
// inside a computation, so a stage replayed from the store never loads
// it. The disk tier is Config.Cache; nil leaves the memory tier alone
// and never derives a disk key, so no identity is ever hashed.
//
// Every stage's memory key names exactly what its disk key names
// (handles for identities), so a render with the cache off computes
// precisely the artifacts a cold one stores, and a second render in the
// same process computes nothing.
//
//	stage            memory key                  disk
//	binary handle    (exe, libs) pointers        ident-v1  (internal/workloads:
//	                 identity + code size; the build itself is assembled, and
//	                 BinaryOf's handles of resident images are memory-only)
//	native baseline  handle                      native-v1
//	train profile    handle                      profile-v1
//	train analysis   handle                      —  (a live CFG/SSA graph)
//	plan             ref, train, Selection.Key   schedule-v1  (the OFFLINE half:
//	                 schedule and loop summary; a hit skips analysis, profile
//	                 and image)
//	DBM run          handle, digest, dbm.Config  dbm-v2
//	compiler model   —  (internal/compilers: the plan under its selection, then
//	                 RunPlanBinary under its cost model, on the Janus rows'
//	                 baseline)

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

// handleLimit bounds handleTier and the plan and DBM tiers. It sits
// above the 70 binaries a full-suite render derives keys for, its 88
// plans and its 127 runs, so a long-lived process never wraps a bound
// and recomputes its working set.
const handleLimit = 4 * memoLimit

// handleTier maps (executable, library set) to its stable handle, on
// the contract every pointer-keyed tier here rests on: executables and
// libraries are never mutated after construction. The handle lives
// beside the binary rather than inside it: it describes an executable
// *and* a library set, and the executable alone cannot know the
// second. An entry keeps its executable reachable, which is why the
// tier is bounded at all.
var handleTier = artcache.Tier[runKey, *obj.Binary]{Limit: handleLimit}

// BinaryOf returns the handle of a resident image: the same one for the
// same executable pointer and library set, so the (exe, libs...) entry
// points share memory tiers and hash each binary at most once. A set of
// more than four libraries is too wide to key and gets a fresh handle
// per call, which no later call can share a memoised stage with.
func BinaryOf(exe *obj.Executable, libs ...*obj.Library) *obj.Binary {
	lk, ok := libsKeyOf(libs)
	if !ok {
		return obj.NewBinary(exe, libs...)
	}
	b, _ := handleTier.Do(nil, runKey{exe: exe, libs: lk}, nil, func() (*obj.Binary, error) {
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

// binaryDiskKey is the disk key of a stage that depends on the binary
// alone.
func binaryDiskKey(ids []string) artcache.Key {
	return artcache.Key{Binary: ids[0]}
}

var nativeTier = artcache.Tier[*obj.Binary, *vm.Result]{
	Kind:   "native-v1",
	Limit:  memoLimit,
	Encode: vm.EncodeResult,
	Decode: vm.DecodeResult,
}

// runNativeBaseline is the native-baseline stage: bin runs natively at
// most once per handle even under concurrent callers, and not at all
// when c holds its result.
func runNativeBaseline(c *artcache.Cache, bin *obj.Binary) (*vm.Result, error) {
	return staged(&nativeTier, c, bin, []*obj.Binary{bin}, binaryDiskKey, func() (*vm.Result, error) {
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
	return runNativeBaseline(c, BinaryOf(exe, libs...))
}

var analyzeTier = artcache.Tier[*obj.Binary, *analyzer.Program]{Limit: memoLimit}

// runAnalyzeMemo returns the static analysis of bin, running it at
// most once per handle. The shared Program is read-only in the
// profiling path (GenProfileSchedule builds a fresh schedule; the
// Apply* mutators are only ever called on per-plan analyses).
func runAnalyzeMemo(bin *obj.Binary) (*analyzer.Program, error) {
	return analyzeTier.Do(nil, bin, nil, func() (*analyzer.Program, error) {
		exe, _, err := bin.Image()
		if err != nil {
			return nil, err
		}
		return analyzer.Analyze(exe)
	})
}

// profileTier is keyed by the binary alone, in memory as on disk: every
// Program reaching it is a fresh deterministic analysis of that binary
// (the Apply* mutations happen downstream on ref analyses), so the
// binary subsumes it, and the plans that train on one build — under the
// memoised train analysis or, figure 6, under the build's own — share
// one profile.
var profileTier = artcache.Tier[*obj.Binary, *ProfileResult]{
	Kind:   "profile-v1",
	Limit:  memoLimit,
	Encode: encodeProfile,
	Decode: decodeProfile,
}

// runProfiling is the train-profile stage: the profile of bin is taken
// at most once per handle even under concurrent callers; prog, an
// unmodified analysis of bin, instruments the run when there is one.
func runProfiling(c *artcache.Cache, bin *obj.Binary, prog *analyzer.Program) (*ProfileResult, error) {
	return staged(&profileTier, c, bin, []*obj.Binary{bin}, binaryDiskKey, func() (*ProfileResult, error) {
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
	return runProfiling(c, BinaryOf(exe, libs...), prog)
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

// dbmTier holds whole results beneath the harness's per-render run
// table: distinct runs whose schedules hash equal, and every run of a
// later render in the same process, are answered here. v2: v1 results
// of binaries with a vector register live into a parallel loop carry
// the DataHash of a run that dropped it.
var dbmTier = artcache.Tier[dbmKey, *dbm.Result]{
	Kind:   "dbm-v2",
	Limit:  handleLimit,
	Encode: dbm.EncodeResult,
	Decode: dbm.DecodeResult,
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
// but are attributed in Stats (HostParRegions, StealRegions).
func dbmConfigKey(c dbm.Config) string {
	return fmt.Sprintf("threads=%d parallel=%t hostpar=%t steal=%t miniter=%d maxsteps=%d cost=%+v",
		c.Threads, c.Parallel, c.HostParallel, c.WorkStealing, c.MinIterPerThread, c.MaxSteps, c.Cost)
}

// runDBM executes bin under the DBM and sched, the schedule digest
// names. Fault-injected runs bypass both tiers: their recovery counters
// must come from a real execution, and a plan's effect is not part of
// the key. Profiling runs go through the profile tier instead, and a
// schedule with no digest (unserialisable, hand-built plan) has nothing
// to be keyed by.
func runDBM(c *artcache.Cache, bin *obj.Binary, sched *rules.Schedule, digest string, dcfg dbm.Config) (*dbm.Result, error) {
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
		return dbmTier.Disk(nil, nil, compute)
	}
	return staged(&dbmTier, c, dbmKey{bin, digest, dcfg}, []*obj.Binary{bin}, func(ids []string) artcache.Key {
		return artcache.Key{Binary: ids[0], Input: digest, Config: dbmConfigKey(dcfg)}
	}, compute)
}

// ResetMemos drops every completed entry from the memory tiers —
// handles with their memoised identities and resident images included.
// Tests use it to force the next run through the durable tier;
// in-flight computations are unaffected.
func ResetMemos() {
	handleTier.Reset()
	nativeTier.Reset()
	analyzeTier.Reset()
	profileTier.Reset()
	planTier.Reset()
	dbmTier.Reset()
}

// TierStats reports the memory-tier counters of the stages declared
// here, by artifact kind (artcache.Stats.WithTiers puts them beside the
// store's).
func TierStats() map[string]artcache.TierStats {
	return map[string]artcache.TierStats{
		nativeTier.Kind:  nativeTier.Stats(),
		profileTier.Kind: profileTier.Stats(),
		planTier.Kind:    planTier.Stats(),
		dbmTier.Kind:     dbmTier.Stats(),
	}
}

// RunBareDBMBinary executes bin under the DBM with no rewrite schedule
// (the "DynamoRIO only" baseline of figure 7), replayed from c when it
// holds the run; nil c always executes.
func RunBareDBMBinary(c *artcache.Cache, bin *obj.Binary) (*dbm.Result, error) {
	return runDBM(c, bin, nil, noSchedule, dbm.Config{Threads: 1, Cost: dbm.DefaultCost(), MaxSteps: vm.DefaultMaxSteps})
}

// RunBareDBMCached is RunBareDBMBinary over the handle BinaryOf
// memoises for exe and libs.
func RunBareDBMCached(c *artcache.Cache, exe *obj.Executable, libs ...*obj.Library) (*dbm.Result, error) {
	return RunBareDBMBinary(c, BinaryOf(exe, libs...))
}
