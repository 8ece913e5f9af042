//go:build !linux

package artcache

import (
	"io"
	"os"
	"time"
)

// heldDir holds nothing here: a hit opens its entry by its full path.
type heldDir struct{}

func (heldDir) release() {}

// read reads the entry file at p.
func (kc *kindCounters) read(p string) ([]byte, time.Time, error) { return readEntry(p) }

// readEntry reads the entry file at p whole — one open, one fstat and
// one read of exactly the size that fstat reports — and returns its
// bytes with its mtime. Darwin and the BSDs already keep a regular
// file away from the runtime poller, so os.Open costs no extra syscall
// there; read_linux.go has the path that avoids it on Linux.
func readEntry(p string) ([]byte, time.Time, error) {
	f, err := os.Open(p)
	if err != nil {
		return nil, time.Time{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, time.Time{}, err
	}
	data := make([]byte, st.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, time.Time{}, err
	}
	return data, st.ModTime(), nil
}
