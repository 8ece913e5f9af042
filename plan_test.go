package janus

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"janus/internal/artcache"
	"janus/internal/dbm"
	"janus/internal/obj"
	"janus/internal/rules"
	"janus/internal/workloads"
)

// figure7Modes are the three parallelising configurations.
var figure7Modes = []Config{
	{},
	{UseProfile: true},
	{UseProfile: true, UseChecks: true},
}

// TestReplayedPlanEqualsGenerated: for every registry benchmark under
// every mode, the plan decoded from its schedule-v1 entry carries the
// byte-identical schedule and the same loop summary, and the digest it
// took of the stored bytes — which keys every run under the plan, and
// is never recomputed — is the SHA-256 of that schedule's serialised
// form: anything else would turn a warm replay's runs into misses. Each
// lookup is made in a fresh session; in one the second would be the
// first one's pointer and compare a plan with itself.
func TestReplayedPlanEqualsGenerated(t *testing.T) {
	c, err := artcache.Open(t.TempDir(), artcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloads.Names() {
		exe, libs, err := workloads.Build(name, workloads.Train, workloads.O3)
		if err != nil {
			t.Fatal(err)
		}
		bin := BinaryOf(exe, libs...)
		for _, cfg := range figure7Modes {
			sel := cfg.Selection()
			gen, err := NewSession(nil).PlanCached(c, bin, nil, sel)
			if err != nil {
				t.Fatalf("%s, %s: %v", name, sel.Key, err)
			}
			before := c.Stats()
			got, err := NewSession(nil).PlanCached(c, bin, nil, sel)
			if err != nil {
				t.Fatalf("%s, %s: %v", name, sel.Key, err)
			}
			if d := c.Stats(); d.Hits != before.Hits+1 || d.Misses != before.Misses || got == gen {
				t.Fatalf("%s, %s: second plan was not one store hit (%s, was %s)", name, sel.Key, d, before)
			}
			want, err := gen.Schedule.Save()
			if err != nil {
				t.Fatal(err)
			}
			have, err := got.Schedule.Save()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(have, want) {
				t.Errorf("%s, %s: replayed schedule serialises to %d bytes that differ from the generated %d", name, sel.Key, len(have), len(want))
			}
			if d := scheduleDigest(have); got.digest != d || gen.digest != d || !bytes.Equal(got.image, have) {
				t.Errorf("%s, %s: digests %s (replayed) and %s (generated), schedule hashes to %s", name, sel.Key, got.digest, gen.digest, d)
			}
			if !reflect.DeepEqual(got.Loops, gen.Loops) || got.Selected() != gen.Selected() || len(gen.Loops) == 0 {
				t.Errorf("%s, %s: replayed loop summary %v, generated %v", name, sel.Key, got.Loops, gen.Loops)
			}
		}
	}
}

// TestReplayedReportEqualsCold: Parallelise against a warm store — in a
// fresh session — reports exactly what the cold call did.
func TestReplayedReportEqualsCold(t *testing.T) {
	for _, name := range []string{"470.lbm", "410.bwaves"} {
		c, err := artcache.Open(t.TempDir(), artcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		exe, libs, err := workloads.Build(name, workloads.Ref, workloads.O3)
		if err != nil {
			t.Fatal(err)
		}
		trainExe, _, err := workloads.Build(name, workloads.Train, workloads.O3)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Threads: 8, UseProfile: true, UseChecks: true, Verify: true, TrainExe: trainExe, Cache: c}
		cfg.Session = NewSession(nil)
		cold, err := Parallelise(exe, cfg, libs...)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Session = NewSession(nil)
		before := c.Stats()
		warm, err := Parallelise(exe, cfg, libs...)
		if err != nil {
			t.Fatal(err)
		}
		// Plan, baseline and run; the profile beneath the plan is not read.
		if d := c.Stats(); d.Hits != before.Hits+3 || d.Misses != before.Misses {
			t.Fatalf("%s: warm Parallelise was not three store hits (%s, was %s)", name, d, before)
		}
		if cold.CodeSize != len(exe.Code) || cold.Selected == 0 {
			t.Fatalf("%s: cold report has CodeSize %d (code section is %d), %d loops selected", name, cold.CodeSize, len(exe.Code), cold.Selected)
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Errorf("%s: replayed report differs from the cold one:\n warm %+v\n cold %+v", name, warm, cold)
		}
	}
}

// TestUnloadablePlanIsRecomputed: a schedule-v1 entry that verifies and
// frames correctly but whose schedule bytes rules.Load rejects (a
// schedule format the kind tag failed to capture) is recomputed and
// overwritten, like any undecodable payload.
func TestUnloadablePlanIsRecomputed(t *testing.T) {
	c, err := artcache.Open(t.TempDir(), artcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exe, libs, err := workloads.Build("470.lbm", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	bin, sel := BinaryOf(exe, libs...), Config{}.Selection()
	gen, err := NewSession(nil).PlanCached(c, bin, nil, sel)
	if err != nil {
		t.Fatal(err)
	}
	good, err := encodePlan(gen)
	if err != nil {
		t.Fatal(err)
	}
	rewriteArtifacts(t, c.Dir(), func(entry []byte) []byte {
		if !bytes.Equal(entry[80:], good) {
			t.Fatal("the store's one entry is not the plan")
		}
		payload := bytes.Clone(good)
		payload[4] ^= 0xFF // the schedule's own magic, inside intact framing
		if _, err := decodePlan(payload); err == nil {
			t.Fatal("a plan whose schedule has a bad magic decoded")
		}
		return staleLayoutWith(entry, payload)
	})
	before := c.Stats() // a fresh session: the store is what is under test
	got, err := NewSession(nil).PlanCached(c, bin, nil, sel)
	if err != nil {
		t.Fatal(err)
	}
	if d := c.Stats(); d.Hits != before.Hits+1 || d.BadEntries != before.BadEntries {
		t.Fatalf("unloadable plan should read as a verified hit: %s, was %s", d, before)
	}
	if have, err := encodePlan(got); err != nil || !bytes.Equal(have, good) {
		t.Fatalf("the plan returned over an unloadable entry is not the generated one (err %v)", err)
	}
	rewriteArtifacts(t, c.Dir(), func(entry []byte) []byte {
		if !bytes.Equal(entry[80:], good) {
			t.Error("unloadable plan was not overwritten with the recomputed one")
		}
		return entry
	})
}

// TestPlanDigestCoversExactlyTheSchedule: the digest is taken of the
// payload's schedule slice as stored, so those bytes must be one
// schedule and nothing else. A payload whose slice carries bytes past
// the last rule — which would parse to the same schedule under another
// digest — is refused, as is one with bytes past the loop summary.
func TestPlanDigestCoversExactlyTheSchedule(t *testing.T) {
	exe, libs, err := workloads.Build("470.lbm", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := process.Load().PlanCached(nil, BinaryOf(exe, libs...), nil, Config{}.Selection())
	if err != nil {
		t.Fatal(err)
	}
	good, err := encodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if back, err := decodePlan(good); err != nil || back.digest != plan.digest {
		t.Fatalf("round trip: %v", err)
	}
	n := binary.LittleEndian.Uint32(good)
	padded := binary.LittleEndian.AppendUint32(nil, n+3)
	padded = append(padded, good[4:4+n]...)
	padded = append(padded, "xyz"...)
	padded = append(padded, good[4+n:]...)
	if p, err := decodePlan(padded); err == nil {
		t.Fatalf("a schedule slice with trailing bytes decoded under digest %s (honest %s)", p.digest, plan.digest)
	}
	if _, err := decodePlan(append(bytes.Clone(good), 0)); err == nil {
		t.Fatal("a payload with a byte past its loop summary decoded")
	}
}

// TestScheduleForAnotherBinaryIsRefused: a schedule that went through
// its file format and is applied to a different benchmark's binary is a
// typed error from every entry point that executes schedules — never a
// run — while the binary it was generated for accepts it.
func TestScheduleForAnotherBinaryIsRefused(t *testing.T) {
	a, aLibs, err := workloads.Build("470.lbm", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	b, bLibs, err := workloads.Build("410.bwaves", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Parallelise(a, Config{Threads: 4, UseProfile: true, UseChecks: true, Verify: true}, aLibs...)
	if err != nil {
		t.Fatal(err)
	}
	img, err := rep.Schedule.Save()
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "a.jrs")
	if err := os.WriteFile(file, img, 0o644); err != nil {
		t.Fatal(err)
	}
	img, err = os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := rules.Load(img)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := dbm.DefaultConfig(4)

	native, res, err := RunScheduleBinary(nil, BinaryOf(a, aLibs...), loaded, dcfg)
	if err != nil {
		t.Fatalf("the schedule's own binary refused it: %v", err)
	}
	if err := Verify(native, res); err != nil || res.Cycles != rep.DBM.Cycles {
		t.Fatalf("loaded schedule ran differently from the generated one: %v (%d vs %d cycles)", err, res.Cycles, rep.DBM.Cycles)
	}

	c, err := artcache.Open(t.TempDir(), artcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, store := range []*artcache.Cache{nil, c} {
		_, res, err := RunScheduleBinary(store, BinaryOf(b, bLibs...), loaded, dcfg)
		if !errors.Is(err, rules.ErrWrongBinary) {
			t.Fatalf("store %v: benchmark A's schedule on benchmark B: result %v, error %v — want rules.ErrWrongBinary", store != nil, res, err)
		}
	}
	if stored, _ := filepath.Glob(filepath.Join(c.Dir(), "dbm-v3", "*.art")); len(stored) != 0 {
		t.Fatalf("%d DBM results were stored for a refused schedule", len(stored))
	}
	if _, err := dbm.New(b, loaded, dcfg, bLibs...); !errors.Is(err, rules.ErrWrongBinary) {
		t.Fatalf("dbm.New accepted another binary's schedule: %v", err)
	}
}

// TestStaleIdentityNeverKeysAnArtifact: a handle whose recorded
// identity is another binary's has every stage it enters dropped and
// repeated under the identity its image really has; nothing is
// published under the record, and the result is the honest handle's.
func TestStaleIdentityNeverKeysAnArtifact(t *testing.T) {
	exe, libs, err := workloads.Build("470.lbm", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	other, otherLibs, err := workloads.Build("410.bwaves", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	honest, victim := BinaryOf(exe, libs...), BinaryOf(other, otherLibs...)
	want, err := ParalleliseBinary(honest, nil, Config{Threads: 4, UseProfile: true, UseChecks: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}

	c, err := artcache.Open(t.TempDir(), artcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	corrected := ""
	lying := obj.Lazy(victim.ID(), victim.CodeSize(), func() (*obj.Executable, []*obj.Library, error) {
		return exe, libs, nil
	}, func(id string, codeSize int) { corrected = fmt.Sprint(id, " ", codeSize) })
	got, err := ParalleliseBinary(lying, nil, Config{Threads: 4, UseProfile: true, UseChecks: true, Verify: true, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if corrected != fmt.Sprint(honest.ID(), " ", len(exe.Code)) || lying.ID() != honest.ID() {
		t.Fatalf("handle was not corrected to its image's identity: hook saw %q, handle says %s", corrected, lying.ID())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("run through a lying handle differs from the honest one:\n got %+v\nwant %+v", got, want)
	}

	// Everything stored must be reachable by the honest identity, so a
	// fresh session replays it all; the victim's identity must key
	// nothing.
	s := NewSession(nil)
	before := c.Stats()
	if _, err := ParalleliseBinary(s.BinaryOf(exe, libs...), nil, Config{Threads: 4, UseProfile: true, UseChecks: true, Verify: true, Cache: c, Session: s}); err != nil {
		t.Fatal(err)
	}
	if d := c.Stats(); d.Misses != before.Misses || d.Hits != before.Hits+3 {
		t.Fatalf("honest replay of what the lying handle stored: %s, was %s", d, before)
	}
	before = c.Stats()
	if _, err := s.PlanCached(c, victim, nil, Config{UseProfile: true, UseChecks: true}.Selection()); err != nil {
		t.Fatal(err)
	}
	if d := c.Stats(); d.Hits != before.Hits {
		t.Fatalf("the victim's identity keys an artifact computed from another image: %s, was %s", d, before)
	}
}
