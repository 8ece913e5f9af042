package obj

import (
	"strings"
	"sync"
)

// Identity is the content identity of (executable, library set): the
// fingerprint of every mapped image, in load order. It is what the
// durable artifact cache keys every derived artifact by, so two
// binaries with equal identities are indistinguishable to the analyser,
// the VM and the DBM.
func Identity(exe *Executable, libs []*Library) string {
	var sb strings.Builder
	sb.WriteString(exe.Fingerprint())
	for _, l := range libs {
		sb.WriteByte('+')
		sb.WriteString(l.Fingerprint())
	}
	return sb.String()
}

// Binary is a handle on one guest binary — an executable plus the
// libraries it is loaded with — that can be addressed without its image
// being resident. Cached pipeline stages key their memory tier by the
// handle pointer and their disk tier by ID, and call Image only inside
// a computation, so a stage replayed from a store never loads the
// ~10 MB image it derives from.
//
// A handle is either eager (NewBinary: the image is there, the identity
// is hashed on first demand and at most once) or lazy (Lazy: the
// identity was recorded when the image was stored, the image is loaded
// on first demand and at most once). Executables and libraries are
// never mutated after construction, which is what makes a memoised
// identity and a shared image sound. A Binary is safe for concurrent
// use.
type Binary struct {
	mu       sync.Mutex
	id       string
	codeSize int
	exe      *Executable
	libs     []*Library
	// load materialises a lazy handle; nil once the image is resident.
	load func() (*Executable, []*Library, error)
	// stale is told the image's own identity and code size when they
	// differ from the recorded ones.
	stale func(id string, codeSize int)
}

// NewBinary returns an eager handle on a resident image.
func NewBinary(exe *Executable, libs ...*Library) *Binary {
	return &Binary{exe: exe, libs: libs, codeSize: len(exe.Code)}
}

// Lazy returns a handle known by a recorded identity and code-section
// size, whose image load produces on first demand. A record is only as
// good as the store it came from, so the image is hashed when it is
// materialised: if it is not the binary the record describes, the
// handle takes the image's identity from then on and stale (when
// non-nil) is called with it, so the owner of the record can replace
// it. Callers that derived a key from ID before Image must therefore
// compare ID again after.
func Lazy(id string, codeSize int, load func() (*Executable, []*Library, error), stale func(id string, codeSize int)) *Binary {
	return &Binary{id: id, codeSize: codeSize, load: load, stale: stale}
}

// ID returns the binary's content identity (see Identity).
func (b *Binary) ID() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.id == "" {
		b.id = Identity(b.exe, b.libs)
	}
	return b.id
}

// CodeSize returns the size of the executable's code section in bytes
// (the figure schedule sizes are normalised against), known without the
// image.
func (b *Binary) CodeSize() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.codeSize
}

// Image returns the executable and its libraries, loading them on the
// first call of a lazy handle. A failed load is not remembered.
func (b *Binary) Image() (*Executable, []*Library, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.load != nil {
		exe, libs, err := b.load()
		if err != nil {
			return nil, nil, err
		}
		b.exe, b.libs, b.load = exe, libs, nil
		if id := Identity(exe, libs); id != b.id || len(exe.Code) != b.codeSize {
			b.id, b.codeSize = id, len(exe.Code)
			if b.stale != nil {
				b.stale(b.id, b.codeSize)
			}
		}
	}
	return b.exe, b.libs, nil
}
