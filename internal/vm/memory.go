// Package vm implements the guest machine: paged memory, per-thread
// execution contexts, and instruction semantics with a virtual cycle
// cost model in one dispatch routine (ExecRun) through which the native
// runner and the DBM's runs and sites execute decoded instructions.
//
// The virtual cycle clock substitutes for wall-clock measurement on real
// hardware: every instruction charges its cost-model latency to the
// executing context, and the parallel runtime combines per-thread clocks
// (max across threads plus orchestration overheads) to produce the
// elapsed time of a parallel region. This keeps every experiment
// deterministic and host-independent.
//
// Memory is shared between guest threads, but all thread-private access
// state (the software TLB and the last-leaf cache) lives in per-thread
// MemViews, so guest threads scheduled on different host goroutines can
// access disjoint words concurrently without synchronisation on the hot
// path. Structural changes (page and leaf allocation) are serialised by
// a mutex on the miss path, and page-table slots are atomic pointers so
// lock-free readers never observe a torn update.
//
// A machine does not copy its executable's data section: the section is
// laid out once per executable as an immutable page image (image.go)
// whose full pages are the executable's own bytes, and every Memory
// loaded from it maps those pages copy-on-write. A page table entry is
// a per-Memory header (page) that points at the bytes; the first store
// to a mapped page swaps a private copy in behind the header. Views
// cache headers, never byte pointers, so a page that one thread
// privatises is seen by every other view on its next access — there is
// no TLB shoot-down to get wrong.
//
// The private blocks a run writes, and its page-table leaves, outlive
// it: Close hands them to package-level free lists the next machine's
// pages and leaves come from. Both are recycled only after Close; a
// block is zeroed, or overwritten in full, before it is mapped, and a
// leaf is emptied by Close.
package vm

import (
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"

	"janus/internal/freelist"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1

	// leafBits pages share one directory leaf, so the map lookup in the
	// translation slow path happens once per 4 MiB region rather than
	// once per 4 KiB page.
	leafBits = 10
	leafMask = (1 << leafBits) - 1

	// tlbBits sizes the per-view software TLB: direct-mapped, indexed by
	// the page number folded onto itself so arrays a power of two apart
	// (the usual layout of a kernel's operands) do not share a slot. 64
	// entries hold a loop streaming several arrays plus its stack; the
	// size is a constant, not a setting.
	tlbBits = 6
	tlbSize = 1 << tlbBits
	tlbMask = tlbSize - 1
)

// FNV-1a constants, folded 64 bits at a time over page contents.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// noPage is the TLB tag for an empty slot; no real page number reaches
// it (addresses are 64-bit, page numbers at most 52-bit).
const noPage = ^uint64(0)

// pageData is the bytes of one page.
type pageData [pageSize]byte

// maxFreeBlocks bounds the recycled blocks a process keeps, at 16 MiB.
// A cache-off janus-bench render peaks at 2 900–3 800 blocks on the
// list at -jobs 2 (once in 14 processes at the bound) and at 2 170–
// 2 400 at -jobs 1; a pipeline_gen sweep peaks at 31. A later render
// in the same process at -jobs 2 can still take a few hundred fresh
// blocks, and did so as often with a bound of 8 192: the rows that
// happen to overlap set a render's peak, not the bound. An idle
// process holds no more than this.
const maxFreeBlocks = 4096

// blocks recycles private blocks between machines (Memory.Close puts,
// the three allocation sites below and in checkpoint.go get). It is
// touched only when a page is allocated and at Close, never per access.
var blocks = freelist.New[pageData](maxFreeBlocks)

// takeBlock returns a block whose contents are arbitrary: the caller
// overwrites it in full or clears it.
func takeBlock() *pageData { return blocks.Get() }

// BlockStats reports how many page blocks machines of this process have
// allocated fresh and how many they were handed recycled.
func BlockStats() (fresh, reused int64) { return blocks.Stats() }

// maxFreeLeaves bounds the recycled page-table leaves a process keeps,
// at 256 KiB (8 KiB each). A machine maps a handful of 4 MiB spans —
// code and data, heap, stacks, TLS — and a cache-off janus-bench render
// peaks at 10 leaves on the list (6 at -jobs 1), a pipeline_gen sweep at
// 6, so the bound is about three times the render's peak: steady renders
// allocate no leaf, and an idle process holds no more than this.
const maxFreeLeaves = 32

// freeLeaves recycles page-table leaves between machines
// (Memory.Close empties and puts, leafFor gets). It is touched only
// when a leaf is added and at Close, never per access.
var freeLeaves = freelist.New[leaf](maxFreeLeaves)

// LeafStats reports how many page-table leaves machines of this process
// have allocated fresh and how many they were handed recycled.
func LeafStats() (fresh, reused int64) { return freeLeaves.Stats() }

// Page states (page.dirty). A store is allowed only in pageDirty, so
// every store path is one load and one compare whatever else a page can
// be.
const (
	// pageClean: private bytes, digest and nonzero valid.
	pageClean = iota
	// pageDirty: private bytes, written since the digest was taken.
	pageDirty
	// pageShared: the bytes are the loaded image's (img) and have never
	// been written through this Memory; digest and nonzero are the
	// image's.
	pageShared
)

// page is one Memory's header for one 4 KiB block: where its bytes are,
// and its cached digest state. digest and nonzero are valid unless the
// state is pageDirty; every write path moves the page to pageDirty first
// and the hash routines refresh lazily. data and dirty are accessed
// atomically because host-parallel guest threads writing disjoint words
// of the same page privatise it and mark it dirty concurrently.
type page struct {
	// data points at the page's current bytes: img while the page is
	// shared, a private block from the first store on. It changes at
	// that first store, when a checkpoint puts a saved block back, and
	// to nil at Close.
	data atomic.Pointer[pageData]
	// img is the loaded image's block this page was mapped from, nil
	// for a page the Memory allocated itself. Never written through,
	// never reassigned.
	img     *pageData
	key     uint64 // addr >> pageShift
	digest  uint64
	nonzero bool
	dirty   atomic.Uint32
	// snapEpoch is the checkpoint epoch this page was last saved under
	// (see checkpoint.go); stale values never match a live checkpoint.
	snapEpoch atomic.Uint64
}

// markDirty makes the page writable and invalidates the cached digest.
// The common case (page already dirty) is a single atomic load, which
// on the hot store path costs no more than a plain load on mainstream
// architectures. Callers load p.data only after it returns.
func (p *page) markDirty() {
	if p.dirty.Load() != pageDirty {
		p.setDirty()
	}
}

// setDirty is markDirty's slow path: the first store to a clean page,
// or to a shared one, which gets its private copy here. Two threads may
// first-write disjoint words of one shared page at once: each copies
// the (immutable) image block, one compare-and-swap from img wins, and
// both then store into the winner's block — the swap can only ever
// leave img, so a late copier cannot replace a block already written to.
func (p *page) setDirty() {
	if p.dirty.Load() == pageShared && p.data.Load() == p.img {
		cp := takeBlock()
		*cp = *p.img
		if !p.data.CompareAndSwap(p.img, cp) {
			blocks.Put(cp) // never published
		}
	}
	p.dirty.Store(pageDirty)
}

// digestOf folds a page's 64-bit words FNV-1a style and reports whether
// any byte is nonzero, in one pass.
func digestOf(d *pageData) (digest uint64, nonzero bool) {
	h := uint64(fnvOffset)
	var nz uint64
	for i := 0; i < pageSize; i += 8 {
		w := binary.LittleEndian.Uint64(d[i:])
		nz |= w
		h = (h ^ w) * fnvPrime
	}
	return h, nz != 0
}

// refresh recomputes the digest and nonzero flag of a written page.
func (p *page) refresh() {
	p.digest, p.nonzero = digestOf(p.data.Load())
	p.dirty.Store(pageClean)
}

// leaf is one directory entry: an array of page slots covering a 4 MiB
// aligned span. Slots are atomic pointers: they transition nil→page
// exactly once (under Memory.mu) in a Memory's life, and lock-free
// readers on other goroutines must not observe a torn write. A leaf
// outlives its Memory on the free list, emptied by Close.
type leaf struct {
	pages [1 << leafBits]atomic.Pointer[page]
}

// Memory is a sparse, zero-filled, byte-addressable 64-bit space backed
// by a two-level page table: a directory of 4 MiB leaves (map keyed by
// high address bits, consulted only on TLB+leaf miss) each holding an
// array of 4 KiB page slots.
//
// All addresses are readable and writable; the simulator does not model
// protection faults (the paper's transformations never rely on them).
//
// Memory's own accessor methods (Read64, WriteBytes, …) go through an
// embedded default MemView and are not safe for concurrent use; the
// host-parallel runtime gives each guest thread its own MemView (see
// NewView), which may be used concurrently with other views as long as
// the guest threads' written words are disjoint — exactly the
// disjointness Janus' static analysis and runtime bounds checks
// guarantee for the loops it parallelises.
type Memory struct {
	// mu serialises structural growth: leaf-map inserts, page
	// allocation, and the all/sorted bookkeeping. The data fast paths
	// never take it.
	mu     sync.RWMutex
	leaves map[uint64]*leaf
	// closed is set by Close, before its leaves go to the free list. A
	// view checks it before trusting its last-leaf cache, so a view that
	// outlived the Memory faults instead of reading through a leaf
	// another Memory now owns.
	closed atomic.Bool

	// all lists every allocated page for the hash routines; it is
	// re-sorted by page number on demand after new allocations.
	all    []*page
	sorted bool

	// view is the default single-threaded access port used by Memory's
	// own methods.
	view MemView

	// ckpt is the active region checkpoint, or nil. Deliberately a plain
	// pointer: it flips only on the orchestrating goroutine while no
	// guest thread runs (before spawn / after join), so store fast paths
	// read it without atomics (see checkpoint.go).
	ckpt *Checkpoint
	// ckptEpoch numbers checkpoints so page stamps from released
	// checkpoints never alias a live one.
	ckptEpoch uint64
	// spare holds the blocks released checkpoints no longer need, for
	// the next checkpoint's pre-images (see checkpoint.go). Only
	// blocks that already existed come here (a pre-image copy at
	// Discard, what a failed region wrote at Restore), so the list
	// recycles the Memory's footprint and never adds to it. Touched only under the active checkpoint's mutex or, between
	// regions, by the orchestrating goroutine.
	spare []*pageData
}

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	m := &Memory{leaves: make(map[uint64]*leaf)}
	m.view.init(m)
	return m
}

// newMemoryOver returns an address space with img mapped copy-on-write:
// one header per image page, all from one allocation, pointing at the
// image's bytes. Nothing is copied until a page is first stored to.
func newMemoryOver(img *image) *Memory {
	m := NewMemory()
	hdrs := make([]page, len(img.pages))
	m.all = make([]*page, len(hdrs))
	var lf *leaf
	for i := range img.pages {
		ip, p := &img.pages[i], &hdrs[i]
		p.key, p.img, p.digest, p.nonzero = ip.key, ip.data, ip.digest, true
		p.data.Store(ip.data)
		p.dirty.Store(pageShared)
		if lf == nil || ip.key>>leafBits != img.pages[i-1].key>>leafBits {
			lf = m.leafFor(ip.key>>leafBits, true)
		}
		lf.pages[ip.key&leafMask].Store(p)
		m.all[i] = p
	}
	m.sorted = true // image pages ascend by key
	return m
}

// NewView returns a fresh per-thread access port onto m. Distinct views
// may be used from distinct goroutines concurrently; a single view must
// not be shared between goroutines.
func (m *Memory) NewView() *MemView {
	v := &MemView{}
	v.init(m)
	return v
}

// Close ends the Memory's life and recycles every block it owns — the
// pages it allocated, its private copies of image pages, checkpoint
// pre-images and spares — and its page-table leaves. The page table is
// dropped and every header loses its bytes, so a view that outlived the
// Memory faults on its next access instead of reading another run's
// data. No guest thread may be running; a second Close is a no-op.
func (m *Memory) Close() {
	if m.ckpt != nil {
		m.ckpt.Discard() // its pre-images become spares
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed.Store(true)
	for _, lf := range m.leaves {
		// Emptied here, not at reuse: a leaf left waiting on the list
		// with its slots would keep this Memory's headers reachable,
		// and through them every data section they map.
		*lf = leaf{}
		freeLeaves.Put(lf)
	}
	for _, p := range m.all {
		if d := p.data.Swap(nil); d != nil && d != p.img {
			blocks.Put(d)
		}
	}
	for _, d := range m.spare {
		blocks.Put(d)
	}
	m.leaves, m.all, m.spare = nil, nil, nil
	m.view.init(m)
}

// leafFor returns the directory leaf covering leafKey, allocating it if
// absent and create is set.
func (m *Memory) leafFor(leafKey uint64, create bool) *leaf {
	m.mu.RLock()
	leaves := m.leaves
	lf := leaves[leafKey]
	m.mu.RUnlock()
	if leaves == nil {
		panic("vm: memory used after Close")
	}
	if lf != nil || !create {
		return lf
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if lf = m.leaves[leafKey]; lf == nil {
		lf = freeLeaves.Get() // empty: Close cleared it
		m.leaves[leafKey] = lf
	}
	return lf
}

// addPage allocates the page with the given key inside lf, or returns
// the existing one if another thread won the race.
func (m *Memory) addPage(lf *leaf, key uint64) *page {
	m.mu.Lock()
	defer m.mu.Unlock()
	slot := &lf.pages[key&leafMask]
	if p := slot.Load(); p != nil {
		return p
	}
	// A fresh page is clean and all zero (nonzero false, so its digest
	// is never consulted), which is what lets a checkpoint save it
	// without copying it.
	p := &page{key: key}
	d := takeBlock()
	*d = pageData{}
	p.data.Store(d)
	m.all = append(m.all, p)
	m.sorted = false
	slot.Store(p)
	return p
}

// MemView is one thread's access port onto a shared Memory: the
// thread-private software TLB (a direct-mapped table of page headers)
// and the last-leaf cache (the directory entry of the most recent TLB
// miss, so misses within the same 4 MiB span skip the directory map).
// Views hold no guest state of their own — dropping or recreating a view
// never changes simulated results, only host-side locality.
type MemView struct {
	mem *Memory

	// tlb is the software TLB, filled by walk. An entry caches a page's
	// header, never its bytes, so it stays right when the page is
	// privatised or restored behind it.
	tlb [tlbSize]tlbEntry

	// lastLeaf caches the directory entry of the most recent TLB miss.
	lastLeafKey uint64
	lastLeaf    *leaf
}

// tlbEntry maps one page number to its header; key is noPage when empty.
type tlbEntry struct {
	key uint64
	p   *page
}

// tlbSlot folds a page number onto the TLB's index bits.
func tlbSlot(key uint64) uint64 { return (key ^ key>>tlbBits) & tlbMask }

// Rebind points v at m as if it were new, with an empty TLB and
// last-leaf cache; a nil m leaves it bound to nothing, holding no page
// of the Memory it was on. It lets a recycled view serve the next run.
func (v *MemView) Rebind(m *Memory) { v.init(m) }

func (v *MemView) init(m *Memory) {
	v.mem = m
	for i := range v.tlb {
		v.tlb[i] = tlbEntry{key: noPage}
	}
	v.lastLeafKey = noPage
	v.lastLeaf = nil
}

// find returns the resident page containing addr, or nil.
func (v *MemView) find(addr uint64) *page {
	key := addr >> pageShift
	if e := &v.tlb[tlbSlot(key)]; e.key == key {
		return e.p
	}
	return v.walk(key, false)
}

// ensure returns the page containing addr, allocating it if absent.
func (v *MemView) ensure(addr uint64) *page {
	key := addr >> pageShift
	if e := &v.tlb[tlbSlot(key)]; e.key == key {
		return e.p
	}
	return v.walk(key, true)
}

// walk is the TLB-miss path: two-level table lookup, optional
// allocation, and TLB fill. Misses without allocation are not cached,
// so a later allocation of the same page cannot be shadowed by a stale
// negative entry. The last-leaf cache is trusted only while the Memory
// is open: a closed one's leaves may already be another's, and leafFor
// faults.
func (v *MemView) walk(key uint64, create bool) *page {
	leafKey := key >> leafBits
	lf := v.lastLeaf
	if lf == nil || v.lastLeafKey != leafKey || v.mem.closed.Load() {
		lf = v.mem.leafFor(leafKey, create)
		if lf == nil {
			return nil
		}
		v.lastLeafKey = leafKey
		v.lastLeaf = lf
	}
	p := lf.pages[key&leafMask].Load()
	if p == nil {
		if !create {
			return nil
		}
		p = v.mem.addPage(lf, key)
	}
	v.tlb[tlbSlot(key)] = tlbEntry{key: key, p: p}
	return p
}

// touchCkpt is the checkpointed store path: save the pre-write page
// image, then invalidate the cached digest as usual. Every store path
// must run this before mutating p's data when a checkpoint is active.
// The hook is open-coded at each store site (ckpt nil-check + else
// markDirty) rather than wrapped in a helper: a wrapper containing
// this call exceeds the inlining budget, and the store fast paths are
// themselves too big to inline, so a helper would put a real function
// call on every store. Open-coded, the no-checkpoint cost is one
// plain pointer load and a predicted branch.
func (v *MemView) touchCkpt(p *page) {
	v.mem.ckpt.save(p)
	p.markDirty()
}

// Load8 returns the byte at addr.
func (v *MemView) Load8(addr uint64) byte {
	p := v.find(addr)
	if p == nil {
		return 0
	}
	return p.data.Load()[addr&pageMask]
}

// Store8 sets the byte at addr.
func (v *MemView) Store8(addr uint64, b byte) {
	p := v.ensure(addr)
	if v.mem.ckpt != nil {
		v.touchCkpt(p)
	} else {
		p.markDirty()
	}
	p.data.Load()[addr&pageMask] = b
}

// Read64 loads a little-endian 64-bit word from addr. Like Write64 it
// probes the TLB itself instead of calling find: find and ensure are
// over the inlining budget, and on these two paths — every guest load
// and store — the call costs more than the probe (≈ 0.5 ns of 2.5).
func (v *MemView) Read64(addr uint64) uint64 {
	if off := addr & pageMask; off <= pageSize-8 {
		key := addr >> pageShift
		e := &v.tlb[tlbSlot(key)]
		p := e.p
		if e.key != key {
			if p = v.walk(key, false); p == nil {
				return 0
			}
		}
		return binary.LittleEndian.Uint64(p.data.Load()[off : off+8])
	}
	return v.read64Cross(addr)
}

func (v *MemView) read64Cross(addr uint64) uint64 {
	var x uint64
	for i := uint64(0); i < 8; i++ {
		x |= uint64(v.Load8(addr+i)) << (8 * i)
	}
	return x
}

// Write64 stores a little-endian 64-bit word at addr.
func (v *MemView) Write64(addr uint64, x uint64) {
	if off := addr & pageMask; off <= pageSize-8 {
		key := addr >> pageShift
		e := &v.tlb[tlbSlot(key)]
		p := e.p
		if e.key != key {
			p = v.walk(key, true)
		}
		if v.mem.ckpt != nil {
			v.touchCkpt(p)
		} else {
			p.markDirty()
		}
		binary.LittleEndian.PutUint64(p.data.Load()[off:off+8], x)
		return
	}
	v.write64Cross(addr, x)
}

func (v *MemView) write64Cross(addr uint64, x uint64) {
	for i := uint64(0); i < 8; i++ {
		v.Store8(addr+i, byte(x>>(8*i)))
	}
}

// WriteBytes copies b into memory starting at addr, one page span per
// copy.
func (v *MemView) WriteBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		p := v.ensure(addr)
		if v.mem.ckpt != nil {
			v.touchCkpt(p)
		} else {
			p.markDirty()
		}
		n := copy(p.data.Load()[addr&pageMask:], b)
		b = b[n:]
		addr += uint64(n)
	}
}

// ReadInto fills dst with the bytes starting at addr, one page span per
// copy, without allocating.
func (v *MemView) ReadInto(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr & pageMask
		span := pageSize - int(off)
		if span > len(dst) {
			span = len(dst)
		}
		if p := v.find(addr); p != nil {
			copy(dst[:span], p.data.Load()[off:])
		} else {
			clear(dst[:span])
		}
		dst = dst[span:]
		addr += uint64(span)
	}
}

// Copy moves n bytes from src to dst inside the address space using
// page-span copies, without allocating. Overlapping ranges copy in
// ascending address order (the runtime's writeback ranges never
// overlap).
func (v *MemView) Copy(dst, src uint64, n int) {
	for n > 0 {
		span := pageSize - int(src&pageMask)
		if d := pageSize - int(dst&pageMask); d < span {
			span = d
		}
		if span > n {
			span = n
		}
		dp := v.ensure(dst)
		if v.mem.ckpt != nil {
			v.touchCkpt(dp)
		} else {
			dp.markDirty()
		}
		do := dst & pageMask
		dd := dp.data.Load()[do : int(do)+span]
		if sp := v.find(src); sp != nil {
			copy(dd, sp.data.Load()[src&pageMask:])
		} else {
			clear(dd)
		}
		src += uint64(span)
		dst += uint64(span)
		n -= span
	}
}

// Load8 returns the byte at addr.
func (m *Memory) Load8(addr uint64) byte { return m.view.Load8(addr) }

// Store8 sets the byte at addr.
func (m *Memory) Store8(addr uint64, b byte) { m.view.Store8(addr, b) }

// Read64 loads a little-endian 64-bit word from addr.
func (m *Memory) Read64(addr uint64) uint64 { return m.view.Read64(addr) }

// Write64 stores a little-endian 64-bit word at addr.
func (m *Memory) Write64(addr uint64, x uint64) { m.view.Write64(addr, x) }

// WriteBytes copies b into memory starting at addr.
func (m *Memory) WriteBytes(addr uint64, b []byte) { m.view.WriteBytes(addr, b) }

// ReadBytes copies n bytes starting at addr.
func (m *Memory) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	m.view.ReadInto(addr, out)
	return out
}

// ReadInto fills dst with the bytes starting at addr without
// allocating.
func (m *Memory) ReadInto(addr uint64, dst []byte) { m.view.ReadInto(addr, dst) }

// Copy moves n bytes from src to dst inside the address space.
func (m *Memory) Copy(dst, src uint64, n int) { m.view.Copy(dst, src, n) }

// Hash returns a digest over all resident pages, used to compare final
// memory images between native and parallelised executions. Zero pages
// that were never touched do not contribute, and pages that contain only
// zeroes hash identically to absent pages. Per-page digests are cached
// and only pages written since the last call are re-hashed; a page
// still shared with the loaded image carries the image's digest and is
// never hashed here at all.
//
// Hash must not run concurrently with guest writes; the runtime only
// hashes between regions, when a single goroutine owns the memory.
func (m *Memory) Hash() uint64 {
	return m.hashBelow(^uint64(0))
}

// HashBelow digests only resident pages whose addresses are below
// limit, so runtime-private regions (worker stacks, TLS) can be
// excluded when comparing a parallelised run against a native one.
func (m *Memory) HashBelow(limit uint64) uint64 {
	return m.hashBelow(limit)
}

func (m *Memory) hashBelow(limit uint64) uint64 {
	m.mu.Lock()
	if !m.sorted {
		sort.Slice(m.all, func(i, j int) bool { return m.all[i].key < m.all[j].key })
		m.sorted = true
	}
	all := m.all
	m.mu.Unlock()
	h := uint64(fnvOffset)
	for _, p := range all {
		if p.key<<pageShift >= limit {
			break
		}
		if p.dirty.Load() == pageDirty {
			p.refresh()
		}
		if !p.nonzero {
			continue
		}
		h = (h ^ p.key) * fnvPrime
		h = (h ^ p.digest) * fnvPrime
	}
	return h
}

// Pages returns the number of resident pages (diagnostics only).
func (m *Memory) Pages() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.all)
}

// Bus is the memory interface instructions execute against. The plain
// machine memory and per-thread MemViews implement it; the STM wraps it
// with buffering during speculative execution. ExecRun calls a *Memory
// or *MemView bus directly and any other through this interface.
type Bus interface {
	Read64(addr uint64) uint64
	Write64(addr uint64, v uint64)
}

var (
	_ Bus = (*Memory)(nil)
	_ Bus = (*MemView)(nil)
)
