package vm

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"janus/internal/asm"
	"janus/internal/obj"
)

// dataProgram returns an executable that halts at once and carries data
// as its data section.
func dataProgram(t *testing.T, words int, word func(i int) uint64) *obj.Executable {
	t.Helper()
	b := asm.NewBuilder("image")
	b.DataWords("d", words, word)
	b.Func("main").Halt()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

// sectionBytes returns s's bytes, absent pages as zeros.
func sectionBytes(s *obj.Section) []byte {
	var b bytes.Buffer
	s.WriteTo(&b)
	return b.Bytes()
}

// TestImageMachinesAreIsolated loads two machines from one executable:
// they map the same bytes, so a store in one must be invisible to the
// other and must never reach the executable's own section.
func TestImageMachinesAreIsolated(t *testing.T) {
	const words = 3*pageSize/8 + 17 // three full pages and a ragged tail
	exe := dataProgram(t, words, func(i int) uint64 { return uint64(i) + 1 })
	pristine := sectionBytes(exe.Section)
	m1, err := NewMachine(exe)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewMachine(exe)
	if err != nil {
		t.Fatal(err)
	}
	clean := m2.Mem.Hash()
	if m1.Mem.Hash() != clean {
		t.Fatal("two machines over one executable hash differently before any store")
	}
	base := exe.Section.Base
	m1.Mem.Write64(base, 0xdead)                                      // full, aliased page
	m1.Mem.Store8(base+pageSize+3, 0xee)                              // another one
	m1.Mem.WriteBytes(base+words*8-8, []byte{9, 9, 9, 9, 9, 9, 9, 9}) // the ragged tail page
	m1.Mem.Copy(base+2*pageSize, base, 64)
	if m1.Mem.Hash() == clean {
		t.Fatal("stores did not change the writer's hash")
	}
	if got := m2.Mem.Hash(); got != clean {
		t.Fatalf("stores in one machine changed the other's hash: %#x, was %#x", got, clean)
	}
	if got := m2.Mem.ReadBytes(base, len(pristine)); !bytes.Equal(got, pristine) {
		t.Fatal("stores in one machine are visible in the other")
	}
	if !bytes.Equal(sectionBytes(exe.Section), pristine) {
		t.Fatal("a store reached the executable's data section")
	}
	m3, err := NewMachine(exe)
	if err != nil {
		t.Fatal(err)
	}
	if got := m3.Mem.Hash(); got != clean {
		t.Fatalf("a machine loaded after the stores hashes %#x, want %#x", got, clean)
	}
}

// TestImageConcurrentFirstWrites has two views first-write disjoint
// words of the same still-shared pages from two goroutines while a
// third reads words neither writes: both writers must land in the one
// private copy each page ends up with, the reader must only ever see
// image values, and a fresh view must see everything after the join.
// Exercised by the -race CI job.
func TestImageConcurrentFirstWrites(t *testing.T) {
	const pages = 128
	exe := dataProgram(t, pages*pageSize/8, func(i int) uint64 { return uint64(i) | 1<<40 })
	pristine := sectionBytes(exe.Section)
	m, err := NewMachine(exe)
	if err != nil {
		t.Fatal(err)
	}
	base := exe.Section.Base
	orig := func(addr uint64) uint64 { return (addr-base)/8 | 1<<40 }
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := uint64(0); w < 2; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			v := m.Mem.NewView()
			<-start
			for p := uint64(0); p < pages; p++ {
				v.Write64(base+p*pageSize+8*w, 0xa0+w)
				v.Write64(base+p*pageSize+2048+8*w, 0xb0+w)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		v := m.Mem.NewView()
		<-start
		for p := uint64(0); p < pages; p++ {
			a := base + p*pageSize + 1024
			if got := v.Read64(a); got != orig(a) {
				t.Errorf("reader saw %#x at %#x during the writes, want %#x", got, a, orig(a))
				return
			}
		}
	}()
	close(start)
	wg.Wait()

	v := m.Mem.NewView()
	for p := uint64(0); p < pages; p++ {
		for w := uint64(0); w < 2; w++ {
			if got := v.Read64(base + p*pageSize + 8*w); got != 0xa0+w {
				t.Fatalf("page %d: writer %d's first word is %#x", p, w, got)
			}
			if got := v.Read64(base + p*pageSize + 2048 + 8*w); got != 0xb0+w {
				t.Fatalf("page %d: writer %d's second word is %#x", p, w, got)
			}
		}
		if a := base + p*pageSize + 16; v.Read64(a) != orig(a) {
			t.Fatalf("page %d: an unwritten word changed", p)
		}
	}
	if !bytes.Equal(sectionBytes(exe.Section), pristine) {
		t.Fatal("a store reached the executable's data section")
	}
}

// poisonPool fills the block pool with n blocks of 0xFF, the way closed
// machines fill it with whatever their runs wrote.
func poisonPool(n int) {
	for i := 0; i < n; i++ {
		d := new(pageData)
		for j := range d {
			d[j] = 0xFF
		}
		blocks.Put(d)
	}
}

// TestImagePropertyMatchesWriteBytes checks the mapped image against
// the loader it replaced: for random sections — absent pages, present
// all-zero pages, ragged ends, unaligned bases, no data at all — a
// Memory mapped over the image and a reference Memory filled by
// WriteBytes must agree on Hash, HashBelow and every byte, before and
// after the same random stores.
// Both take their blocks from a pool poisoned with 0xFF and with what
// the previous round's memories held when they were closed, and both
// are held to a plain byte-slice model of the same stores: a fresh page
// must read zero and a privatised one must equal its image, whatever
// the block underneath held before.
func TestImagePropertyMatchesWriteBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for round := 0; round < 60; round++ {
		poisonPool(32)
		base := uint64(obj.DefaultDataBase)
		if round%3 == 1 {
			base += uint64(rng.Intn(pageSize))
		}
		size := 0
		switch round % 4 {
		case 1:
			size = rng.Intn(pageSize) + 1
		case 2:
			size = rng.Intn(6*pageSize) + pageSize
		case 3:
			size = (rng.Intn(5) + 1) * pageSize
		}
		data := make([]byte, size)
		sec := obj.NewSection(base, uint64(size))
		for off := 0; off < size; off += pageSize / 2 {
			end := min(off+pageSize/2, size)
			if rng.Intn(3) == 0 {
				// A zero run, written or left absent; two in a row
				// make a zero page.
				if rng.Intn(2) == 0 {
					sec.WriteAt(data[off:end], int64(off))
				}
				continue
			}
			rng.Read(data[off:end])
			sec.WriteAt(data[off:end], int64(off))
		}
		pristine := append([]byte(nil), data...)

		got, ref := newMemoryOver(buildImage(sec)), NewMemory()
		ref.WriteBytes(base, data)
		lo, span := base-pageSize, size+3*pageSize
		model := make([]byte, span)
		copy(model[base-lo:], data)
		compare := func(when string) {
			t.Helper()
			if got.Hash() != ref.Hash() {
				t.Fatalf("round %d %s: Hash %#x, reference %#x", round, when, got.Hash(), ref.Hash())
			}
			limit := lo + uint64(rng.Intn(span))
			if g, r := got.HashBelow(limit), ref.HashBelow(limit); g != r {
				t.Fatalf("round %d %s: HashBelow(%#x) %#x, reference %#x", round, when, limit, g, r)
			}
			if !bytes.Equal(got.ReadBytes(lo, span), ref.ReadBytes(lo, span)) {
				t.Fatalf("round %d %s: bytes differ from the reference", round, when)
			}
			if !bytes.Equal(got.ReadBytes(lo, span), model) {
				t.Fatalf("round %d %s: bytes differ from the model: a recycled block showed through", round, when)
			}
		}
		compare("after load")
		// store applies one random store to mems, and to the model when
		// modelled.
		store := func(i int, modelled bool, mems ...*Memory) {
			addr := lo + uint64(rng.Intn(span-64))
			var buf []byte
			switch rng.Intn(4) {
			case 0:
				buf = binary.LittleEndian.AppendUint64(nil, rng.Uint64())
				for _, m := range mems {
					m.Write64(addr, binary.LittleEndian.Uint64(buf))
				}
			case 1:
				buf = []byte{byte(i)}
				for _, m := range mems {
					m.Store8(addr, byte(i))
				}
			case 2:
				buf = make([]byte, rng.Intn(2*pageSize))
				if rng.Intn(2) == 0 {
					rng.Read(buf) // else zeroes: a zeroed page must drop out of the hash
				}
				buf = buf[:min(len(buf), span-int(addr-lo))]
				for _, m := range mems {
					m.WriteBytes(addr, buf)
				}
			case 3:
				src := lo + uint64(rng.Intn(span-64))
				buf = bytes.Clone(model[src-lo : src-lo+64])
				for _, m := range mems {
					m.Copy(addr, src, 64)
				}
			}
			if modelled {
				copy(model[addr-lo:], buf)
			}
		}
		for i := 0; i < 40; i++ {
			store(i, true, got, ref)
			if i%8 == 7 {
				compare("mid-sequence")
			}
			if i == 20 {
				// A failed region: stores the reference never sees,
				// undone by the checkpoint.
				c := got.Snapshot()
				for j := 0; j < 10; j++ {
					store(j, false, got)
				}
				c.Restore()
				compare("after Restore")
			}
		}
		compare("after stores")
		got.Close()
		ref.Close()
		if !bytes.Equal(sectionBytes(sec), pristine) {
			t.Fatalf("round %d: a store or a recycled block reached the section bytes", round)
		}
	}
}

// TestImageAliasesSectionPages pins the image's shape: every page is
// the section's own page, whatever the base's alignment, and an absent
// or all-zero page is not there at all.
func TestImageAliasesSectionPages(t *testing.T) {
	const base = 0x600000
	sec := obj.NewSection(base, 4*pageSize+100) // page 1 absent
	sec.WriteAt([]byte{1}, 5)                   // page 0
	sec.WriteAt(make([]byte, 8), 2*pageSize)    // page 2: present, all zero
	sec.WriteAt([]byte{2}, 4*pageSize+7)        // page 4: ragged tail
	img := buildImage(sec)
	if len(img.pages) != 2 {
		t.Fatalf("image has %d pages, want 2 (absent and zero pages omitted)", len(img.pages))
	}
	for i, want := range []int{0, 4} {
		if p := img.pages[i]; p.key != base>>pageShift+uint64(want) || p.data != (*pageData)(sec.Pages[want]) {
			t.Errorf("image page %d is not section page %d", i, want)
		}
	}

	// An unaligned base: the head page's bytes before the base read zero.
	sec = obj.NewSection(base+8, 2*pageSize)
	sec.WriteAt(bytes.Repeat([]byte{7}, 2*pageSize), 0)
	img = buildImage(sec)
	if len(img.pages) != 3 || img.pages[0].data[7] != 0 || img.pages[0].data[8] != 7 || img.pages[2].data[8] != 0 {
		t.Fatalf("unaligned image: %d pages, or its head or tail bytes wrong", len(img.pages))
	}
	for i, p := range img.pages {
		if p.data != (*pageData)(sec.Pages[i]) {
			t.Errorf("page %d of an unaligned section was copied instead of aliased", i)
		}
	}

	if got := buildImage(obj.NewSection(base, 0)); len(got.pages) != 0 {
		t.Error("empty section produced pages")
	}
	if got := imageOf(&obj.Executable{}); len(got.pages) != 0 {
		t.Error("an executable without a data section produced pages")
	}
}

// TestCheckpointOverImage runs the checkpoint over every kind of page a
// loaded machine has — still shared with the image, already private,
// not yet allocated — and checks Restore is byte-, hash- and
// state-identical to the snapshot point while Discard keeps the writes.
func TestCheckpointOverImage(t *testing.T) {
	exe := dataProgram(t, 4*pageSize/8, func(i int) uint64 { return uint64(i) + 3 })
	m, err := NewMachine(exe)
	if err != nil {
		t.Fatal(err)
	}
	pristine := sectionBytes(exe.Section)
	mem, base := m.Mem, exe.Section.Base
	shared, private, fresh := base, base+pageSize, base+64*pageSize
	mem.Write64(private, 0x1111) // privatised before the snapshot
	span := 65 * pageSize
	wantHash, wantBytes := mem.Hash(), mem.ReadBytes(base, span)

	write := func() {
		mem.Write64(shared+8, 0xaaaa)
		mem.Write64(private+8, 0xbbbb)
		mem.Write64(fresh+8, 0xcccc)
	}
	c := mem.Snapshot()
	write()
	if got := c.Pages(); got != 3 {
		t.Fatalf("checkpoint saved %d pages, want 3", got)
	}
	if mem.Hash() == wantHash {
		t.Fatal("writes under the checkpoint did not change the hash")
	}
	c.Restore()
	if got := mem.Hash(); got != wantHash {
		t.Fatalf("hash after Restore %#x, want %#x", got, wantHash)
	}
	if !bytes.Equal(mem.ReadBytes(base, span), wantBytes) {
		t.Fatal("bytes after Restore differ from the snapshot point")
	}
	if p := mem.view.find(shared); p.dirty.Load() != pageShared || p.data.Load() != p.img {
		t.Fatal("a restored shared page did not go back to the image's bytes")
	}

	if !bytes.Equal(sectionBytes(exe.Section), pristine) {
		t.Fatal("a store reached the executable's data section")
	}

	// Discard keeps the writes and hands the pre-image blocks back: once
	// every page involved is private, a region's checkpoint allocates
	// its own bookkeeping and not one 4 KiB block.
	var before, after runtime.MemStats
	for round := 0; round < 3; round++ {
		runtime.ReadMemStats(&before)
		c := mem.Snapshot()
		write()
		c.Discard()
		runtime.ReadMemStats(&after)
	}
	if got := mem.Read64(shared+8) + mem.Read64(private+8) + mem.Read64(fresh+8); got != 0xaaaa+0xbbbb+0xcccc {
		t.Fatal("Discard lost a write")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= pageSize {
		t.Fatalf("the third checkpointed region allocated %d bytes, want its pre-images from the spare list", got)
	}
}

// TestNewMachineMapsWithoutCopying is the allocation guard on the
// loader: over a 1 MiB data section a machine allocates page headers
// and decode tables, never the section, and only the first machine
// builds the image.
func TestNewMachineMapsWithoutCopying(t *testing.T) {
	const size = 1 << 20
	exe := dataProgram(t, size/8, func(i int) uint64 { return uint64(i) + 1 })
	if _, err := NewMachine(exe); err != nil {
		t.Fatal(err)
	}
	img := imageOf(exe)
	if len(img.pages) != size/pageSize {
		t.Fatalf("image has %d pages, want %d", len(img.pages), size/pageSize)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := NewMachine(exe)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("NewMachine over a %d-byte section allocated %d bytes, want < 64 KiB", size, got)
	}
	if imageOf(exe) != img {
		t.Fatal("a second NewMachine built another image")
	}
	if got := m.Mem.Read64(exe.Section.Base + size - 8); got != size/8 {
		t.Fatalf("last word reads %d through the mapping", got)
	}
}
