package vm

import (
	"encoding/binary"
	"fmt"
)

// Result serialisation for the durable artifact cache
// (internal/artcache): a native baseline is a deterministic function
// of the binary, so its Result can be stored on disk and replayed
// byte-for-byte. The payload is fixed little-endian 64-bit words, read
// and written without reflection — Exit, Cycles, Insts, MemHash,
// DataHash, the Output length, then the Output words — the layout the
// DBM's result codec extends with its counters. Its length is implied
// by the Output count, so a payload of any other length (truncated,
// with trailing bytes, or written under another layout) is rejected.
// Layout changes to Result must bump the caller's artifact kind tag
// (see janus's cache glue), invalidating old entries.

// resultWords is the number of fixed words ahead of the Output words.
const resultWords = 6

// EncodeResult serialises r for the artifact cache.
func EncodeResult(r *Result) ([]byte, error) {
	le := binary.LittleEndian
	out := make([]byte, 0, 8*(resultWords+len(r.Output)))
	out = le.AppendUint64(out, uint64(r.Exit))
	out = le.AppendUint64(out, uint64(r.Cycles))
	out = le.AppendUint64(out, uint64(r.Insts))
	out = le.AppendUint64(out, r.MemHash)
	out = le.AppendUint64(out, r.DataHash)
	out = le.AppendUint64(out, uint64(len(r.Output)))
	for _, v := range r.Output {
		out = le.AppendUint64(out, v)
	}
	return out, nil
}

// DecodeResult parses an EncodeResult payload, rejecting one whose
// length is not exactly what its Output count implies: a payload of
// another schema must be recomputed, not half-read. An empty Output
// decodes as nil.
func DecodeResult(data []byte) (*Result, error) {
	if len(data) < 8*resultWords || len(data)%8 != 0 {
		return nil, fmt.Errorf("vm: decode cached result: %d-byte payload", len(data))
	}
	le := binary.LittleEndian
	word := func(i int) uint64 { return le.Uint64(data[8*i:]) }
	if n := word(resultWords - 1); n != uint64(len(data)/8-resultWords) {
		return nil, fmt.Errorf("vm: decode cached result: %d output words in a %d-byte payload", n, len(data))
	}
	r := &Result{
		Exit:     int64(word(0)),
		Cycles:   int64(word(1)),
		Insts:    int64(word(2)),
		MemHash:  word(3),
		DataHash: word(4),
	}
	if n := len(data)/8 - resultWords; n > 0 {
		r.Output = make([]uint64, n)
		for i := range r.Output {
			r.Output[i] = word(resultWords + i)
		}
	}
	return r, nil
}
