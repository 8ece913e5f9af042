package jrt

import (
	"math"
	"testing"
	"testing/quick"

	"janus/internal/guest"
	"janus/internal/rules"
	"janus/internal/sym"
)

func TestPartitionChunkedCoversExactly(t *testing.T) {
	f := func(nRaw uint16, partsRaw uint8) bool {
		n := int64(nRaw)
		parts := int(partsRaw)%8 + 1
		chunks := PartitionChunked(n, parts)
		if len(chunks) != parts {
			return false
		}
		var total int64
		prev := int64(0)
		for _, c := range chunks {
			if c.Lo > c.Hi || c.Lo < prev {
				return false
			}
			total += c.Hi - c.Lo
			prev = c.Lo
		}
		return total == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartitionChunkedBalance(t *testing.T) {
	chunks := PartitionChunked(100, 8)
	// ceil(100/8) = 13 per thread, last thread gets the remainder.
	if chunks[0].Hi-chunks[0].Lo != 13 {
		t.Fatalf("first chunk %+v", chunks[0])
	}
	if chunks[7].Hi != 100 {
		t.Fatalf("last chunk %+v", chunks[7])
	}
	empty := PartitionChunked(0, 4)
	for _, c := range empty {
		if c.Lo != c.Hi {
			t.Fatal("zero-trip loop must yield empty chunks")
		}
	}
}

// TestPartitionTable drives both partitioners over the edge cases that
// matter for the region engines: every returned partition must cover
// [0, n) exactly once in ascending order, owners must agree between
// the two partitioners, and repeated calls must be deterministic.
func TestPartitionTable(t *testing.T) {
	cases := []struct {
		name    string
		n       int64
		threads int
	}{
		{"zero-trip", 0, 8},
		{"fewer-iterations-than-threads", 3, 8},
		{"one-per-thread", 8, 8},
		{"uneven", 100, 8},
		{"single-thread", 100, 1},
		{"two-threads-odd", 101, 2},
		{"exact-multiple", 96, 8},
		{"one-iteration", 1, 8},
		{"large", 1 << 20, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			static := PartitionChunked(tc.n, tc.threads)
			if len(static) != tc.threads {
				t.Fatalf("PartitionChunked returned %d chunks for %d threads", len(static), tc.threads)
			}
			assertCovers(t, "static", tc.n, func(yield func(Chunk, int)) {
				for o, c := range static {
					yield(c, o)
				}
			})

			steal := PartitionStealing(tc.n, tc.threads, StealFactor)
			assertCovers(t, "stealing", tc.n, func(yield func(Chunk, int)) {
				for _, sc := range steal {
					yield(sc.Chunk, sc.Owner)
				}
			})
			// No stealing subchunk may be empty, and each owner's pieces
			// must reassemble exactly the owner's static chunk.
			ownerLo := map[int]int64{}
			ownerHi := map[int]int64{}
			for _, sc := range steal {
				if sc.Lo >= sc.Hi {
					t.Fatalf("empty stealing subchunk %+v", sc)
				}
				if sc.Hi-sc.Lo > (static[sc.Owner].Hi-static[sc.Owner].Lo+StealFactor-1)/StealFactor {
					t.Errorf("subchunk %+v larger than ceil(chunk/factor)", sc)
				}
				if _, seen := ownerLo[sc.Owner]; !seen || sc.Lo < ownerLo[sc.Owner] {
					ownerLo[sc.Owner] = sc.Lo
				}
				if sc.Hi > ownerHi[sc.Owner] {
					ownerHi[sc.Owner] = sc.Hi
				}
			}
			for o, c := range static {
				if c.Lo >= c.Hi {
					if _, ok := ownerLo[o]; ok {
						t.Errorf("owner %d has stealing pieces but an empty static chunk", o)
					}
					continue
				}
				if ownerLo[o] != c.Lo || ownerHi[o] != c.Hi {
					t.Errorf("owner %d pieces span [%d,%d), static chunk is [%d,%d)", o, ownerLo[o], ownerHi[o], c.Lo, c.Hi)
				}
			}
			// Deterministic: a second call returns the identical slice.
			again := PartitionStealing(tc.n, tc.threads, StealFactor)
			if len(again) != len(steal) {
				t.Fatalf("second call returned %d chunks, first %d", len(again), len(steal))
			}
			for i := range steal {
				if steal[i] != again[i] {
					t.Fatalf("chunk %d differs between calls: %+v vs %+v", i, steal[i], again[i])
				}
			}
		})
	}
}

// assertCovers checks that the yielded chunks tile [0, n) exactly, in
// ascending order, with owners ascending too.
func assertCovers(t *testing.T, label string, n int64, chunks func(yield func(Chunk, int))) {
	t.Helper()
	next := int64(0)
	lastOwner := -1
	chunks(func(c Chunk, owner int) {
		if c.Lo > c.Hi {
			t.Fatalf("%s: inverted chunk %+v", label, c)
		}
		if c.Lo == c.Hi {
			return // empty chunks occupy no iterations
		}
		if c.Lo != next {
			t.Fatalf("%s: chunk %+v does not start at next uncovered iteration %d", label, c, next)
		}
		if owner < lastOwner {
			t.Fatalf("%s: owner order regressed (%d after %d)", label, owner, lastOwner)
		}
		lastOwner = owner
		next = c.Hi
	})
	if next != n {
		t.Fatalf("%s: covered [0,%d), want [0,%d)", label, next, n)
	}
}

func TestPartitionStealingFactorOne(t *testing.T) {
	// factor 1 must degenerate to the static partition (minus empty
	// chunks).
	static := PartitionChunked(100, 8)
	steal := PartitionStealing(100, 8, 1)
	j := 0
	for o, c := range static {
		if c.Lo >= c.Hi {
			continue
		}
		if j >= len(steal) {
			t.Fatalf("piece %d missing: want owner %d chunk %+v", j, o, c)
		}
		if steal[j].Owner != o || steal[j].Chunk != c {
			t.Fatalf("piece %d: got %+v, want owner %d chunk %+v", j, steal[j], o, c)
		}
		j++
	}
	if j != len(steal) {
		t.Fatalf("%d extra stealing pieces", len(steal)-j)
	}
}

func TestReductionIdentities(t *testing.T) {
	if ReductionIdentity(guest.ADD) != 0 {
		t.Error("int add identity")
	}
	if ReductionIdentity(guest.FADD) != 0 {
		t.Error("float add identity must be +0.0 bits")
	}
	if math.Float64frombits(ReductionIdentity(guest.FMUL)) != 1.0 {
		t.Error("float mul identity")
	}
}

func TestMergeReduction(t *testing.T) {
	if MergeReduction(guest.ADD, 5, 7) != 12 {
		t.Error("int add merge")
	}
	got := math.Float64frombits(MergeReduction(guest.FADD, math.Float64bits(1.5), math.Float64bits(2.25)))
	if got != 3.75 {
		t.Errorf("fadd merge = %v", got)
	}
	got = math.Float64frombits(MergeReduction(guest.FMUL, math.Float64bits(3), math.Float64bits(4)))
	if got != 12 {
		t.Errorf("fmul merge = %v", got)
	}
}

func TestMergeReductionAssociates(t *testing.T) {
	// Splitting a sum across threads and merging must equal the
	// sequential sum (exact for integers).
	f := func(vals []int16) bool {
		var seq uint64
		for _, v := range vals {
			seq += uint64(int64(v))
		}
		acc := ReductionIdentity(guest.ADD)
		mid := len(vals) / 2
		var p1, p2 uint64
		for _, v := range vals[:mid] {
			p1 += uint64(int64(v))
		}
		for _, v := range vals[mid:] {
			p2 += uint64(int64(v))
		}
		acc = MergeReduction(guest.ADD, acc, p1)
		acc = MergeReduction(guest.ADD, acc, p2)
		return acc == seq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrivateResourceLayoutsDisjoint(t *testing.T) {
	// Stacks and TLS blocks of distinct threads must never overlap.
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			if a > 0 && StackTopFor(a)-StackSpan < StackTopFor(b) && StackTopFor(b)-StackSpan < StackTopFor(a) && b > 0 {
				t.Fatalf("stacks of %d and %d overlap", a, b)
			}
			if TLSFor(a)+TLSSpan > TLSFor(b) && TLSFor(b)+TLSSpan > TLSFor(a) {
				t.Fatalf("TLS of %d and %d overlap", a, b)
			}
		}
	}
	if PrivAddr(1, 0) == PrivAddr(2, 0) {
		t.Fatal("private slots collide across threads")
	}
	if PrivAddr(1, 0) == PrivAddr(1, 1) {
		t.Fatal("private slots collide within a thread")
	}
}

func TestPatchedBound(t *testing.T) {
	entry := func(r guest.Reg) uint64 { return 0 }
	// Up-counting JGE loop: iv starts 0, step 1; thread bound hi=25
	// means leave when iv >= 25.
	d := rules.UpdateBoundData{ExitOp: guest.JGE, Step: 1, Init: sym.ConstExpr(0)}
	v, err := PatchedBound(d, entry, 25)
	if err != nil || v != 25 {
		t.Fatalf("JGE bound = %d, err %v", v, err)
	}
	// JG leaves when iv > bound: bound must be init+step*(hi-1).
	d.ExitOp = guest.JG
	v, err = PatchedBound(d, entry, 25)
	if err != nil || v != 24 {
		t.Fatalf("JG bound = %d", v)
	}
	// Down-counting JLE loop from 100 step -2, hi=10: leave when
	// iv <= 100-20 = 80.
	d = rules.UpdateBoundData{ExitOp: guest.JLE, Step: -2, Init: sym.ConstExpr(100)}
	v, err = PatchedBound(d, entry, 10)
	if err != nil || int64(v) != 80 {
		t.Fatalf("JLE bound = %d", int64(v))
	}
	// Unsupported op errors.
	d.ExitOp = guest.ADD
	if _, err := PatchedBound(d, entry, 1); err == nil {
		t.Fatal("expected error for bad leave-op")
	}
}
