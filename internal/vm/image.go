package vm

import "janus/internal/obj"

// Loaded images.
//
// A data section is laid out as guest pages once, the first time any
// machine loads an executable over it, and every machine loaded over
// that section maps the result copy-on-write (newMemoryOver). Sections
// are shared: every optimisation level of one (benchmark, input) aliases
// one (obj.Section), so its image and page digests are built once per
// distinct section, not once per executable. A section is already held
// page by page, so every image page is the section's own page — nothing
// is copied, which is sound because sections are immutable after
// construction and a Memory never writes through a shared page. Absent
// and all-zero pages are left out: an absent page reads as zero and
// hashes as nothing, exactly like a resident zero page. Each page's
// digest is taken here, so a run never hashes a page it did not write.
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
	sec := exe.Section
	if sec == nil {
		return &image{}
	}
	return sec.Loaded(func() any { return buildImage(sec) }).(*image)
}

// buildImage maps sec's nonzero pages.
func buildImage(sec *obj.Section) *image {
	img := &image{}
	first := sec.Base >> pageShift
	for i, p := range sec.Pages {
		if p == nil {
			continue
		}
		if digest, nonzero := digestOf((*pageData)(p)); nonzero {
			img.pages = append(img.pages, imagePage{key: first + uint64(i), data: (*pageData)(p), digest: digest})
		}
	}
	return img
}
