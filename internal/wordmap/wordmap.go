// Package wordmap provides a small open-addressed hash table keyed by
// 64-bit words with linear probing, shared by the STM read/write sets
// and the dependence profiler. It replaces map[uint64]V on
// per-instruction fast paths: no runtime map machinery, and the backing
// arrays are reusable across transactions/invocations via Reset.
//
// Tables are not goroutine-safe; both users are confined to the DBM's
// single-goroutine execution paths (speculative loops and profiled
// runs never use the host-parallel engine).
package wordmap

// minCap is the initial table size; must be a power of two.
const minCap = 64

// Table maps 64-bit word addresses to values of type V. The zero value
// is ready to use; the table grows at 50% load.
//
// A slot is occupied when its occ mark equals the table's epoch, so
// emptying the table (Reset, Recycle) only advances the epoch instead of
// clearing the marks; the marks are cleared once every 255 advances,
// when the epoch wraps. Every mark is at most the current epoch.
type Table[V any] struct {
	keys []uint64
	vals []V
	occ  []uint8
	// size is the table's logical size, a power of two: the table uses
	// slots [0, size) of its backing arrays. It is smaller than the
	// backing only after Recycle.
	size  int
	n     int
	epoch uint8
}

// Mix is a 64-bit finalizer (splitmix64-style) spreading word addresses
// across the table.
func Mix(a uint64) uint64 {
	a ^= a >> 33
	a *= 0xff51afd7ed558ccd
	a ^= a >> 33
	a *= 0xc4ceb9fe1a85ec53
	a ^= a >> 33
	return a
}

func (t *Table[V]) init() {
	t.keys = make([]uint64, minCap)
	t.vals = make([]V, minCap)
	t.occ = make([]uint8, minCap)
	t.size, t.n, t.epoch = minCap, 0, 1
}

// advance moves to a fresh epoch, so no slot is occupied. On wrap the
// marks are cleared, keeping every mark at most the epoch.
func (t *Table[V]) advance() {
	if t.epoch++; t.epoch == 0 {
		clear(t.occ)
		t.epoch = 1
	}
	t.n = 0
}

// Reset empties the table, keeping its size and backing arrays.
func (t *Table[V]) Reset() {
	if t.keys == nil {
		t.init()
		return
	}
	t.advance()
}

// Recycle empties the table and returns it to its initial size, keeping
// its backing arrays for the growth to come: a table handed to a new
// owner then probes exactly like a fresh one — same slots, same
// locality — without allocating until it outgrows its backing.
func (t *Table[V]) Recycle() {
	t.Reset()
	t.size = minCap
}

// Len returns the number of stored keys.
func (t *Table[V]) Len() int { return t.n }

// Slots returns the number of slots in the table's backing arrays: what
// its memory is proportional to, which Recycle does not shrink.
func (t *Table[V]) Slots() int { return len(t.keys) }

func (t *Table[V]) slot(addr uint64) int {
	mask := uint64(t.size - 1)
	i := Mix(addr) & mask
	for t.occ[i] == t.epoch && t.keys[i] != addr {
		i = (i + 1) & mask
	}
	return int(i)
}

// Get returns the value stored for addr.
func (t *Table[V]) Get(addr uint64) (V, bool) {
	if t.n == 0 {
		var zero V
		return zero, false
	}
	i := t.slot(addr)
	if t.occ[i] != t.epoch {
		var zero V
		return zero, false
	}
	return t.vals[i], true
}

// Put inserts or overwrites addr→val and reports whether the key was
// newly inserted.
func (t *Table[V]) Put(addr uint64, val V) bool {
	if t.keys == nil {
		t.init()
	}
	i := t.slot(addr)
	if t.occ[i] == t.epoch {
		t.vals[i] = val
		return false
	}
	t.insertAt(i, addr, val)
	return true
}

// PutIfAbsent stores addr→val only if addr is not present, and reports
// whether it inserted.
func (t *Table[V]) PutIfAbsent(addr uint64, val V) bool {
	if t.keys == nil {
		t.init()
	}
	i := t.slot(addr)
	if t.occ[i] == t.epoch {
		return false
	}
	t.insertAt(i, addr, val)
	return true
}

// insertAt fills the free slot i and grows the table at 50% load.
func (t *Table[V]) insertAt(i int, addr uint64, val V) {
	t.occ[i] = t.epoch
	t.keys[i] = addr
	t.vals[i] = val
	t.n++
	if t.n*2 >= t.size {
		t.grow()
	}
}

// grow doubles the logical size, rehashing every entry: into new backing
// arrays when the current ones are full size, in place otherwise.
func (t *Table[V]) grow() {
	size := t.size * 2
	if size > len(t.keys) {
		oldKeys, oldVals, oldOcc, live := t.keys, t.vals, t.occ, t.epoch
		t.keys = make([]uint64, size)
		t.vals = make([]V, size)
		t.occ = make([]uint8, size)
		t.size = size
		for i, mark := range oldOcc {
			if mark == live {
				j := t.slot(oldKeys[i])
				t.keys[j] = oldKeys[i]
				t.vals[j] = oldVals[i]
				t.occ[j] = t.epoch
			}
		}
		return
	}
	// In place: entries of the old epoch move to the new one. Slots
	// past the old size hold marks of earlier epochs only (the size
	// shrinks only by Recycle, which advances the epoch), so they read
	// as free.
	if t.epoch == 255 {
		for i, mark := range t.occ {
			t.occ[i] = 0
			if mark == 255 {
				t.occ[i] = 1
			}
		}
		t.epoch = 1
	}
	old, oldSize, n := t.epoch, t.size, t.n
	t.epoch++
	t.size = size
	mask := uint64(size - 1)
	for i := 0; i < oldSize; i++ {
		if t.occ[i] != old {
			continue
		}
		k, v := t.keys[i], t.vals[i]
		t.occ[i] = 0
		for {
			// Keys are distinct, so the probe stops at the first slot
			// not yet holding a moved entry. If that slot still holds an
			// unmoved one, take its place and move it next.
			j := Mix(k) & mask
			for t.occ[j] == t.epoch {
				j = (j + 1) & mask
			}
			displaced := t.occ[j] == old
			k, t.keys[j] = t.keys[j], k
			v, t.vals[j] = t.vals[j], v
			t.occ[j] = t.epoch
			if !displaced {
				break
			}
		}
	}
	t.n = n
}

// Range calls f for every stored key/value until f returns false. The
// iteration order is the table's probe layout: deterministic for a
// given insertion history, but not sorted.
func (t *Table[V]) Range(f func(addr uint64, val V) bool) {
	for i, mark := range t.occ[:t.size] {
		if mark == t.epoch && !f(t.keys[i], t.vals[i]) {
			return
		}
	}
}
