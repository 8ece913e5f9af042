package vm

import "sync"

// Region checkpointing.
//
// A Checkpoint captures the memory image at a point in time so a
// speculative region engine can undo a failed region and re-execute it
// deterministically. It is built on the same page granularity as the
// incremental hash: activating a checkpoint costs O(1); every page
// receives a copy-on-first-write snapshot the first time any thread
// dirties it while the checkpoint is active, so the total cost is
// O(pages dirtied inside the region), never O(resident set). A page
// still shared with the loaded image is saved by reference — the image
// block is immutable, so its pointer and digest are the whole pre-image
// — and the 4 KiB blocks that private pages are copied into come from
// the Memory's spare list, which Restore and Discard refill: a run's
// regions after the first checkpoint allocate no pre-image blocks.
//
// Concurrency contract: Snapshot and Restore/Discard are called by the
// single orchestrating goroutine, before region workers are spawned and
// after they are joined. While the checkpoint is active, any number of
// workers may write through their MemViews: the first writer of a page
// copies it under the checkpoint mutex *before* its own store lands
// (every store path runs the open-coded touch hook — ckpt check, then
// MemView.touchCkpt — ahead of mutating page data),
// and later writers observe the saved epoch stamp and pay one atomic
// load. The active-checkpoint field itself is a plain pointer read on
// the store fast path — safe because activation happens-before the
// worker spawns and deactivation happens-after the join, so no store
// can race the field flip.

// Checkpoint is an undo log of pre-region page images.
type Checkpoint struct {
	m *Memory
	// epoch identifies this checkpoint on page stamps; pages whose
	// snapEpoch matches are already saved. Stale stamps from earlier
	// checkpoints never match, so Discard needs no stamp sweep.
	epoch uint64

	mu    sync.Mutex
	saved []savedPage
}

// savedPage is one page's pre-region image: its bytes and the digest
// state that went with them. The bytes are the loaded image's own block
// when the page was still shared, nil when the page was known to be all
// zero (a page first allocated inside the region), a copy otherwise.
type savedPage struct {
	p       *page
	data    *pageData
	digest  uint64
	nonzero bool
	state   uint32
}

// Snapshot activates a checkpoint over the whole address space. At most
// one checkpoint may be active per Memory; Restore or Discard releases
// it. Snapshot itself copies nothing.
func (m *Memory) Snapshot() *Checkpoint {
	if m.ckpt != nil {
		panic("vm: nested memory checkpoint")
	}
	m.ckptEpoch++
	c := &Checkpoint{m: m, epoch: m.ckptEpoch}
	m.ckpt = c
	return c
}

// save records p's current contents in the checkpoint if this is the
// first write to p since the checkpoint activated. Callers must invoke
// it before making p writable and mutating its data: the epoch stamp is
// published only after the pre-image is complete, so a concurrent
// first-writer of the same page cannot slip its store into the saved
// image.
func (c *Checkpoint) save(p *page) {
	if p.snapEpoch.Load() == c.epoch {
		return
	}
	c.mu.Lock()
	if p.snapEpoch.Load() != c.epoch {
		s := savedPage{p: p, digest: p.digest, nonzero: p.nonzero, state: p.dirty.Load()}
		switch {
		case s.state == pageShared:
			s.data = p.img
		case s.state == pageClean && !s.nonzero:
			// All zero: there is nothing to keep.
		default:
			s.data = c.m.takeSpare()
			*s.data = *p.data.Load()
		}
		c.saved = append(c.saved, s)
		p.snapEpoch.Store(c.epoch)
	}
	c.mu.Unlock()
}

// takeSpare returns a block for a pre-image (the caller overwrites it in
// full), reusing one a released checkpoint gave back when there is one.
func (m *Memory) takeSpare() *pageData {
	if n := len(m.spare); n > 0 {
		buf := m.spare[n-1]
		m.spare = m.spare[:n-1]
		return buf
	}
	return takeBlock()
}

// Restore puts every page dirtied since Snapshot back to its saved
// image and deactivates the checkpoint: memory is byte-identical to the
// snapshot point, and so is each page's digest state — a page that was
// shared with the loaded image is shared again. The saved block goes
// back behind the page's header (views cache headers, so none can hold
// the discarded bytes) and the block the failed region wrote becomes a
// spare. Pages first allocated inside the region were saved as all-zero
// on their first write, so they are cleared and drop back out of the
// memory hashes (all-zero pages hash like absent ones).
// O(dirty pages); must not run concurrently with guest writes.
func (c *Checkpoint) Restore() {
	for _, s := range c.saved {
		p := s.p
		switch cur := p.data.Load(); {
		case s.data == nil:
			*cur = pageData{}
		case cur != s.data:
			c.m.spare = append(c.m.spare, cur)
			p.data.Store(s.data)
		}
		p.digest, p.nonzero = s.digest, s.nonzero
		p.dirty.Store(s.state)
	}
	c.release()
}

// Discard deactivates the checkpoint and drops the undo log, keeping
// every write made since Snapshot; the pre-image copies become spares.
// O(dirty pages).
func (c *Checkpoint) Discard() {
	for _, s := range c.saved {
		if s.data != nil && s.data != s.p.img {
			c.m.spare = append(c.m.spare, s.data)
		}
	}
	c.release()
}

func (c *Checkpoint) release() {
	if c.m.ckpt == c {
		c.m.ckpt = nil
	}
	c.saved = nil
}

// Pages reports how many pages the checkpoint has saved so far
// (diagnostics and cost tests only).
func (c *Checkpoint) Pages() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.saved)
}
