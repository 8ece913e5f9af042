package wordmap

import "testing"

func TestBasicAndZeroKey(t *testing.T) {
	var m Table[uint64]
	if _, ok := m.Get(0); ok {
		t.Fatal("empty table reports key 0")
	}
	if !m.Put(0, 7) {
		t.Fatal("fresh insert of key 0 not reported")
	}
	if v, ok := m.Get(0); !ok || v != 7 {
		t.Fatalf("key 0 = %d,%v", v, ok)
	}
	if m.Put(0, 9) {
		t.Fatal("overwrite reported as insert")
	}
	if v, _ := m.Get(0); v != 9 {
		t.Fatal("overwrite lost")
	}
	if m.PutIfAbsent(0, 1) {
		t.Fatal("PutIfAbsent replaced existing key")
	}
	if v, _ := m.Get(0); v != 9 {
		t.Fatal("PutIfAbsent mutated existing value")
	}
}

func TestGrowKeepsAllKeys(t *testing.T) {
	var m Table[uint64]
	const n = 10_000
	for i := uint64(0); i < n; i++ {
		m.Put(i*8, i)
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := m.Get(i * 8); !ok || v != i {
			t.Fatalf("key %d lost across grows", i*8)
		}
	}
}

func TestResetKeepsCapacityDropsKeys(t *testing.T) {
	var m Table[uint64]
	for i := uint64(0); i < 100; i++ {
		m.Put(i, i)
	}
	m.Reset()
	if m.Len() != 0 {
		t.Fatal("Reset kept keys")
	}
	if _, ok := m.Get(5); ok {
		t.Fatal("Reset kept key 5")
	}
	if !m.Put(5, 50) {
		t.Fatal("insert after Reset not reported as fresh")
	}
}

func TestRangeVisitsEverything(t *testing.T) {
	var m Table[uint64]
	want := map[uint64]uint64{}
	for i := uint64(0); i < 500; i++ {
		m.Put(i*16, i)
		want[i*16] = i
	}
	seen := map[uint64]uint64{}
	m.Range(func(k, v uint64) bool {
		seen[k] = v
		return true
	})
	if len(seen) != len(want) {
		t.Fatalf("Range visited %d keys, want %d", len(seen), len(want))
	}
	for k, v := range want {
		if seen[k] != v {
			t.Fatalf("key %d: %d != %d", k, seen[k], v)
		}
	}
}

// BenchmarkTable measures the raw open-addressed table against the
// previous map[uint64]uint64 representation.
func BenchmarkTable(b *testing.B) {
	var m Table[uint64]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			m.Reset()
		}
		a := uint64(i%512) * 8
		m.Put(a, uint64(i))
		if _, ok := m.Get(a); !ok {
			b.Fatal("lost key")
		}
	}
}

// TestRecycleMatchesMap drives one table through random Put, PutIfAbsent,
// Get, Reset and Recycle calls — enough empties to wrap the epoch
// several times, and enough keys after a Recycle that it grows in place
// through its old backing arrays — checking every answer and every
// Range against a Go map.
func TestRecycleMatchesMap(t *testing.T) {
	var m Table[uint64]
	want := map[uint64]uint64{}
	x := uint64(1)
	next := func() uint64 { // xorshift64: a fixed, cheap sequence
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	check := func(step int) {
		if m.Len() != len(want) {
			t.Fatalf("step %d: Len %d, want %d", step, m.Len(), len(want))
		}
		seen := 0
		m.Range(func(k, v uint64) bool {
			if w, ok := want[k]; !ok || w != v {
				t.Fatalf("step %d: Range yields %d=%d, want %d (present %v)", step, k, v, w, ok)
			}
			seen++
			return true
		})
		if seen != len(want) {
			t.Fatalf("step %d: Range visited %d keys, want %d", step, seen, len(want))
		}
	}
	for step := 0; step < 1500; step++ {
		// Most rounds stay small; some grow past the largest backing
		// seen so far, so both grow paths run after a Recycle.
		n := int(next()%64) + 1
		if step%50 == 0 {
			n = 3000 + step*4
		}
		keyRange := uint64(n) * 3
		for i := 0; i < n; i++ {
			k := next() % keyRange * 8
			switch next() % 3 {
			case 0:
				_, had := want[k]
				if fresh := m.Put(k, uint64(i)); fresh == had {
					t.Fatalf("step %d: Put(%d) fresh=%v with key present=%v", step, k, fresh, had)
				}
				want[k] = uint64(i)
			case 1:
				_, had := want[k]
				if fresh := m.PutIfAbsent(k, uint64(i)); fresh == had {
					t.Fatalf("step %d: PutIfAbsent(%d) fresh=%v with key present=%v", step, k, fresh, had)
				}
				if !had {
					want[k] = uint64(i)
				}
			default:
				v, ok := m.Get(k)
				if w, had := want[k]; ok != had || v != w {
					t.Fatalf("step %d: Get(%d) = %d,%v, want %d,%v", step, k, v, ok, w, had)
				}
			}
		}
		check(step)
		if next()%2 == 0 {
			m.Reset()
		} else {
			m.Recycle()
		}
		clear(want)
		check(step)
	}
}

// TestRecycleKeepsBacking: a recycled table reads empty for every key it
// held, and refilling it to the same size allocates nothing.
func TestRecycleKeepsBacking(t *testing.T) {
	var m Table[uint64]
	const n = 5000
	fill := func() {
		for i := uint64(0); i < n; i++ {
			m.Put(i*8, i)
		}
	}
	fill()
	m.Recycle()
	for i := uint64(0); i < n; i++ {
		if _, ok := m.Get(i * 8); ok {
			t.Fatalf("recycled table still holds key %d", i*8)
		}
	}
	if allocs := testing.AllocsPerRun(5, func() { m.Recycle(); fill() }); allocs != 0 {
		t.Fatalf("refilling a recycled table allocated %v times, want 0", allocs)
	}
}

// TestSlotsCountsBacking: Slots is the backing's length, which growth
// doubles and Recycle keeps.
func TestSlotsCountsBacking(t *testing.T) {
	var m Table[uint64]
	if got := m.Slots(); got != 0 {
		t.Fatalf("zero table has %d slots, want 0", got)
	}
	for i := uint64(0); i < minCap; i++ {
		m.Put(i*8, i)
	}
	if got := m.Slots(); got != 4*minCap {
		t.Fatalf("%d keys: %d slots, want %d", minCap, got, 4*minCap)
	}
	m.Recycle()
	if got := m.Slots(); got != 4*minCap {
		t.Fatalf("recycled table has %d slots, want %d", got, 4*minCap)
	}
}
