package artcache

import (
	"fmt"
	"io"
	"os"
	"syscall"
	"time"
)

// readEntry reads the entry file at p whole and returns its bytes with
// its mtime: one open, one fstat, reads up to the size fstat reports
// (one read unless the kernel returns it short) and one close, on a raw
// descriptor. os.Open would add about five syscalls and five
// allocations to every hit on Linux: it sets the descriptor
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
