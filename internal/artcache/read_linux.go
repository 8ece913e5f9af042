package artcache

import (
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
	"time"
)

// heldDir is the descriptor of a kind's directory, held so that a hit
// opens its entry by name relative to it: openat then walks one path
// component, where open walks every component of the store's path. The
// zero value holds nothing; a kind's first successful full-path read
// opens it (a kind with no directory pins nothing).
type heldDir struct {
	// mu is held shared across every openat on fd and exclusively to
	// replace or release it, so a descriptor is closed only while no
	// openat uses it — a closed number reused by another open could
	// otherwise resolve the entry's name in some other directory.
	mu sync.RWMutex
	fd int // the descriptor plus one; 0 holds nothing
}

// read reads the entry file at p, a path in kc's directory: by its
// name relative to the held directory, or — when none is held or that
// open fails — by the full path. A full-path read that succeeds
// (re)opens the held directory, so a kind directory removed or replaced
// under the store is still answered from the directory now at its path.
func (kc *kindCounters) read(p string) ([]byte, time.Time, error) {
	fd, seen, err := kc.held.open(p[len(kc.dir):])
	if err == nil {
		return readOpen(fd, p)
	}
	data, mtime, err := readEntry(p)
	if err == nil {
		kc.held.replace(kc.dir, seen)
	}
	return data, mtime, err
}

// open opens name in the held directory. It reports the held value it
// found, for replace.
func (h *heldDir) open(name string) (fd, seen int, err error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.fd == 0 {
		return -1, 0, syscall.EBADF
	}
	fd, err = ignoringEINTR(func() (int, error) {
		return syscall.Openat(h.fd-1, name, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	})
	return fd, h.fd, err
}

// replace holds a new descriptor of dir in place of seen, unless
// another reader replaced seen first. The new one is opened before the
// old one is closed, so the two never share a number.
func (h *heldDir) replace(dir string, seen int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fd != seen {
		return
	}
	fd, err := ignoringEINTR(func() (int, error) {
		return syscall.Open(dir, syscall.O_RDONLY|syscall.O_DIRECTORY|syscall.O_CLOEXEC, 0)
	})
	if h.fd != 0 {
		syscall.Close(h.fd - 1)
		h.fd = 0
	}
	if err == nil {
		h.fd = fd + 1
	}
}

// release closes the held descriptor.
func (h *heldDir) release() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fd != 0 {
		syscall.Close(h.fd - 1)
		h.fd = 0
	}
}

// readEntry reads the entry file at p whole and returns its bytes with
// its mtime: one open, then readOpen — one fstat, reads up to the size
// fstat reports (one read unless the kernel returns it short) and one
// close — on a raw descriptor. os.Open would add about five syscalls
// and five allocations to every hit on Linux: it sets the descriptor
// non-blocking, tries to register it with the runtime poller (a regular
// file is refused), sets it back to blocking, and attaches a finalizer
// to the *os.File. O_CLOEXEC keeps the descriptor out of the process a
// hot-restarting daemon executes. Anything but a regular file is an
// error, so a directory at the path is a miss as it is on other systems.
func readEntry(p string) ([]byte, time.Time, error) {
	fd, err := ignoringEINTR(func() (int, error) {
		return syscall.Open(p, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	})
	if err != nil {
		return nil, time.Time{}, &os.PathError{Op: "open", Path: p, Err: err}
	}
	return readOpen(fd, p)
}

// readOpen reads the entry file open on fd, whose path is p, whole and
// closes fd.
func readOpen(fd int, p string) ([]byte, time.Time, error) {
	defer syscall.Close(fd)
	var st syscall.Stat_t
	if _, err := ignoringEINTR(func() (struct{}, error) { return struct{}{}, syscall.Fstat(fd, &st) }); err != nil {
		return nil, time.Time{}, &os.PathError{Op: "fstat", Path: p, Err: err}
	}
	if st.Mode&syscall.S_IFMT != syscall.S_IFREG {
		return nil, time.Time{}, fmt.Errorf("artcache: %s is not a regular file", p)
	}
	data := make([]byte, st.Size)
	for n := 0; n < len(data); {
		m, err := ignoringEINTR(func() (int, error) { return syscall.Read(fd, data[n:]) })
		if err != nil {
			return nil, time.Time{}, &os.PathError{Op: "read", Path: p, Err: err}
		}
		if m == 0 {
			return nil, time.Time{}, io.ErrUnexpectedEOF
		}
		n += m
	}
	return data, time.Unix(st.Mtim.Unix()), nil
}

// ignoringEINTR calls f until it fails with something other than EINTR,
// which a signal can raise in any blocking call on a slow filesystem.
func ignoringEINTR[T any](f func() (T, error)) (T, error) {
	for {
		v, err := f()
		if err != syscall.EINTR {
			return v, err
		}
	}
}
