package janus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"janus/internal/analyzer"
	"janus/internal/artcache"
	"janus/internal/dbm"
	"janus/internal/obj"
	"janus/internal/rules"
	"janus/internal/vm"
)

// Cached stages. Native execution, the training profile, the train
// analysis and a DBM run are deterministic functions of the binary
// (plus schedule and configuration), and the evaluation harness asks
// for the same ones many times: figure 9 alone replays one binary at
// eight thread counts, each replay needing the identical native result
// and train profile, and with the experiment scheduler several rows
// ask concurrently. Each stage is therefore one artcache.Tier instance
// — memory singleflight → disk → compute → publish, written once in
// internal/artcache — and this file only declares what distinguishes
// them: the memory key, the disk key and the payload codec.
//
// Memory keys are the *obj.Executable pointer plus the library set:
// the workload build tier returns a stable executable per (name,
// input, opt), so a pointer can never alias two different programs.
// Disk keys are content fingerprints, so they survive the process;
// hashing a ~10 MB image per lookup would cost more than the replay it
// keys, so the fingerprint itself is a memory-only stage (identityTier)
// computed once per executable. The disk tier is Config.Cache; nil
// leaves the memory tier alone and never derives a disk key.
//
//	stage            memory  disk
//	content identity yes     —  (it is the disk key of the rows below)
//	native baseline  yes     native-v1
//	train profile    yes     profile-v1
//	train analysis   yes     —  (a Program is a live CFG/SSA graph)
//	DBM run          —       dbm-v2  (key spans schedule and config)
//	compiler model   —       native-v1 + dbm-v2  (RunScheduleCached under
//	                         internal/compilers' own schedule and cost
//	                         model; the baseline is the Janus rows')

// memoLimit bounds each memory tier (the harness working set is far
// smaller).
const memoLimit = 64

// libsKey folds a library pointer set into a comparable key.
type libsKey [4]*obj.Library

// libsKeyOf reports ok=false for a set too large to key; callers then
// skip the memory tier instead of aliasing keys.
func libsKeyOf(libs []*obj.Library) (libsKey, bool) {
	var k libsKey
	if len(libs) > len(k) {
		return k, false
	}
	copy(k[:], libs)
	return k, true
}

// runKey is the memory key of a stage that depends on the binary alone.
type runKey struct {
	exe  *obj.Executable
	libs libsKey
}

// identityLimit bounds identityTier. It sits above the 70 binaries a
// full-suite render derives keys for, so a long-lived janusd never
// wraps the bound and re-hashes its working set.
const identityLimit = 4 * memoLimit

// identityTier memoises binaryKey per (executable, library set), on
// the contract every pointer-keyed tier here rests on: executables and
// libraries are never mutated after construction. The memo lives
// beside the binary rather than inside it — Strip copies the struct,
// and a digest field would follow the copy into a binary with other
// symbols. An entry keeps its executable reachable, which is why the
// tier is bounded at all: the key itself is a few hundred bytes.
var identityTier = artcache.Tier[runKey, string]{Limit: identityLimit}

// binaryKey is the content identity of (executable, library set): the
// fingerprint of every mapped image, in load order, hashed at most
// once per executable however many stages and configurations key
// artifacts by it.
func binaryKey(exe *obj.Executable, libs []*obj.Library) string {
	lk, ok := libsKeyOf(libs)
	if !ok {
		return hashBinary(exe, libs)
	}
	k, _ := identityTier.Do(nil, runKey{exe: exe, libs: lk}, nil, func() (string, error) {
		return hashBinary(exe, libs), nil
	})
	return k
}

// hashBinary computes what binaryKey memoises.
func hashBinary(exe *obj.Executable, libs []*obj.Library) string {
	var sb strings.Builder
	sb.WriteString(exe.Fingerprint())
	for _, l := range libs {
		sb.WriteByte('+')
		sb.WriteString(l.Fingerprint())
	}
	return sb.String()
}

// binaryDiskKey is the disk key of a stage that depends on the binary
// alone.
func binaryDiskKey(exe *obj.Executable, libs []*obj.Library) func() (artcache.Key, bool) {
	return func() (artcache.Key, bool) {
		return artcache.Key{Binary: binaryKey(exe, libs)}, true
	}
}

var nativeTier = artcache.Tier[runKey, *vm.Result]{
	Kind:   "native-v1",
	Limit:  memoLimit,
	Encode: vm.EncodeResult,
	Decode: vm.DecodeResult,
}

// RunNativeBaselineCached is RunNativeBaseline backed by a durable
// artifact cache (nil c degrades to the memory tier alone): exe runs
// natively at most once per (executable, libraries) even under
// concurrent callers.
func RunNativeBaselineCached(c *artcache.Cache, exe *obj.Executable, libs ...*obj.Library) (*vm.Result, error) {
	run := func() (*vm.Result, error) { return vm.RunNative(exe, libs...) }
	dk := binaryDiskKey(exe, libs)
	lk, ok := libsKeyOf(libs)
	if !ok {
		return nativeTier.Disk(c, dk, run)
	}
	return nativeTier.Do(c, runKey{exe: exe, libs: lk}, dk, run)
}

var analyzeTier = artcache.Tier[*obj.Executable, *analyzer.Program]{Limit: memoLimit}

// runAnalyzeMemo returns the static analysis of exe, running it at
// most once per executable. The shared Program is read-only in the
// profiling path (GenProfileSchedule builds a fresh schedule; the
// Apply* mutators are only ever called on per-run analyses).
func runAnalyzeMemo(exe *obj.Executable) (*analyzer.Program, error) {
	return analyzeTier.Do(nil, exe, nil, func() (*analyzer.Program, error) {
		return analyzer.Analyze(exe)
	})
}

// profileKey identifies one profiling run: the binary, the analysis it
// was instrumented from (a different analysis of the same binary must
// not reuse the profile), and the library set. The disk key omits
// prog: every Program reaching the tier is a fresh deterministic
// analysis of exe (the Apply* mutations happen downstream on ref
// analyses), so the binary fingerprint subsumes it.
type profileKey struct {
	exe  *obj.Executable
	prog *analyzer.Program
	libs libsKey
}

var profileTier = artcache.Tier[profileKey, *ProfileResult]{
	Kind:   "profile-v1",
	Limit:  memoLimit,
	Encode: encodeProfile,
	Decode: decodeProfile,
}

// RunProfilingCached is RunProfiling behind both tiers: the profile
// for exe under prog is taken at most once per (executable, analysis,
// libraries) even under concurrent callers. On a durable-cache hit
// the returned ProfileResult carries the four profile maps but a nil
// Executor; callers needing the raw profiler state must use
// RunProfiling directly.
func RunProfilingCached(c *artcache.Cache, exe *obj.Executable, prog *analyzer.Program, libs ...*obj.Library) (*ProfileResult, error) {
	run := func() (*ProfileResult, error) { return RunProfiling(exe, prog, libs...) }
	dk := binaryDiskKey(exe, libs)
	lk, ok := libsKeyOf(libs)
	if !ok {
		return profileTier.Disk(c, dk, run)
	}
	return profileTier.Do(c, profileKey{exe: exe, prog: prog, libs: lk}, dk, run)
}

// profilePayload is the disk form of a ProfileResult: the four
// deterministic profile maps. The Executor is process-local state
// (raw coverage tables, dependence sets) and is nil on a cache load;
// nothing downstream of the tier reads it.
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

// dbmTier is used through Disk only: a DBM result's identity spans
// the whole schedule and configuration, and the one caller that repeats
// runs within a process — the harness, whose figures share runs —
// holds whole Reports in its per-render run table instead. v2: v1
// results of binaries with a vector register live into a parallel loop
// carry the DataHash of a run that dropped it.
var dbmTier = artcache.Tier[struct{}, *dbm.Result]{
	Kind:   "dbm-v2",
	Encode: dbm.EncodeResult,
	Decode: dbm.DecodeResult,
}

// scheduleKey hashes a rewrite schedule's serialised form. ok=false
// (unserialisable schedule) means the run must bypass the cache — a
// shared sentinel key would alias distinct schedules.
func scheduleKey(sched *rules.Schedule) (string, bool) {
	if sched == nil {
		return "none", true
	}
	img, err := sched.Save()
	if err != nil {
		return "", false
	}
	sum := sha256.Sum256(img)
	return hex.EncodeToString(sum[:]), true
}

// dbmConfigKey folds every Config field that can influence a Result —
// including the engine-selection knobs, which leave virtual cycles
// untouched but are attributed in Stats (HostParRegions,
// StealRegions) — into a canonical string. Inject and Profile are
// absent because injected and profiling runs never reach the cache.
func dbmConfigKey(c dbm.Config) string {
	return fmt.Sprintf("threads=%d parallel=%t hostpar=%t steal=%t miniter=%d maxsteps=%d cost=%+v",
		c.Threads, c.Parallel, c.HostParallel, c.WorkStealing, c.MinIterPerThread, c.MaxSteps, c.Cost)
}

// runDBMCached executes exe under the DBM. Fault-injected runs bypass
// the cache unconditionally: their recovery counters must come from a
// real execution, and a plan's effect is not part of the key.
// Profiling runs go through the profile tier instead.
func runDBMCached(c *artcache.Cache, exe *obj.Executable, sched *rules.Schedule, dcfg dbm.Config, libs ...*obj.Library) (*dbm.Result, error) {
	if dcfg.Inject != nil || dcfg.Profile {
		c = nil
	}
	return dbmTier.Disk(c, func() (artcache.Key, bool) {
		sk, ok := scheduleKey(sched)
		return artcache.Key{Binary: binaryKey(exe, libs), Input: sk, Config: dbmConfigKey(dcfg)}, ok
	}, func() (*dbm.Result, error) {
		ex, err := dbm.New(exe, sched, dcfg, libs...)
		if err != nil {
			return nil, err
		}
		return ex.Run()
	})
}

// ResetMemos drops every completed entry from the memory tiers. Tests
// use it to force the next run through the durable tier; in-flight
// computations are unaffected.
func ResetMemos() {
	identityTier.Reset()
	nativeTier.Reset()
	analyzeTier.Reset()
	profileTier.Reset()
}

// RunBareDBMCached is RunBareDBM backed by a durable artifact cache
// (nil c recomputes every time, matching RunBareDBM).
func RunBareDBMCached(c *artcache.Cache, exe *obj.Executable, libs ...*obj.Library) (*dbm.Result, error) {
	return runDBMCached(c, exe, nil, dbm.Config{Threads: 1, Cost: dbm.DefaultCost(), MaxSteps: vm.DefaultMaxSteps}, libs...)
}
