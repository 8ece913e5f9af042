package vm

import "janus/internal/obj"

// Loaded images.
//
// A data section is laid out as guest pages once, the first time any
// machine loads an executable over it, and every machine loaded over
// that section maps the result copy-on-write (newMemoryOver). Sections
// are shared: every optimisation level of one (benchmark, input) aliases
// one (obj.Section), so its image and page digests are built once per
// distinct section, not once per executable. Pages that lie wholly
// inside the section are the section's own bytes — nothing is copied,
// which is sound because sections are immutable after construction and
// a Memory never writes through a shared page. The ragged first and
// last pages are copied into padded blocks. All-zero pages are left
// out: an absent page reads as zero and hashes as nothing, exactly like
// a resident zero page. Each page's digest is taken here, so a run
// never hashes a page it did not write.
//
// The image is owned by its section (obj.Section.Loaded) and is
// collected with it; there is no table of images anywhere else.

// image is one data section as guest pages, ascending by key.
// Immutable once built.
type image struct {
	pages []imagePage
}

// imagePage is one nonzero page of an image.
type imagePage struct {
	key    uint64 // addr >> pageShift
	data   *pageData
	digest uint64
}

// imageOf returns the loaded image of exe's data section, building it
// on first use.
func imageOf(exe *obj.Executable) *image {
	sec := exe.DataSection()
	return sec.Loaded(func() any { return buildImage(sec.Base, sec.Bytes) }).(*image)
}

// buildImage lays data out at base as pages.
func buildImage(base uint64, data []byte) *image {
	img := &image{}
	if len(data) == 0 {
		return img
	}
	end := base + uint64(len(data))
	first, last := base>>pageShift, (end-1)>>pageShift
	img.pages = make([]imagePage, 0, last-first+1)
	for key := first; key <= last; key++ {
		lo, hi := key<<pageShift, (key+1)<<pageShift
		if lo < base {
			lo = base
		}
		if hi > end {
			hi = end
		}
		span := data[lo-base : hi-base]
		var pd *pageData
		if len(span) == pageSize {
			pd = (*pageData)(span)
		} else {
			pd = new(pageData)
			copy(pd[lo&pageMask:], span)
		}
		if digest, nonzero := digestOf(pd); nonzero {
			img.pages = append(img.pages, imagePage{key: key, data: pd, digest: digest})
		}
	}
	return img
}
