package dbm

import (
	"encoding/binary"
	"fmt"
)

// Result serialisation for the durable artifact cache
// (internal/artcache). A DBM execution is a deterministic function of
// (binary, schedule, configuration) — the determinism contract the
// golden fixture pins — so the full Result, stats included, can be
// stored on disk and replayed. Engine-selection knobs must be part of
// the cache key: virtual-cycle results are bit-identical across
// engines, but engine-attribution counters (HostParRegions,
// StealRegions) are not. See janus's cache glue for the key layout;
// changing Result or Stats fields must bump the artifact kind tag
// there.
//
// The payload is fixed little-endian 64-bit words, read and written
// without reflection: the vm.Result scalars (Exit, Cycles, Insts,
// MemHash, DataHash), every Stats counter in declaration order, then
// the Output length and the Output words. Its length is therefore
// implied by the Output count, and a payload of any other length — a
// truncated one, one with trailing bytes, or one written under another
// layout — is rejected.

// statsWords is the number of counters in Stats.
const statsWords = 22

// resultWords is the number of fixed words ahead of the Output words.
const resultWords = 5 + statsWords + 1

// words lists every Stats counter in declaration order: the codec's
// layout of Stats.
func (s *Stats) words() [statsWords]*int64 {
	return [...]*int64{
		&s.TransBlocks, &s.TransInsts, &s.TransCycles,
		&s.ParCycles, &s.InitFinishCycles, &s.CheckCycles,
		&s.Invocations, &s.ParRegions, &s.HostParRegions, &s.StealRegions,
		&s.SeqFallbacks, &s.CacheFlushes, &s.ParRecoveries, &s.DemotedLoops,
		&s.ChecksRun, &s.ChecksFailed,
		&s.TxStarted, &s.TxCommits, &s.TxAborts,
		&s.SpecReads, &s.SpecWrites, &s.SpecInsts,
	}
}

// EncodeResult serialises r for the artifact cache.
func EncodeResult(r *Result) ([]byte, error) {
	le := binary.LittleEndian
	out := make([]byte, 0, 8*(resultWords+len(r.Output)))
	out = le.AppendUint64(out, uint64(r.Exit))
	out = le.AppendUint64(out, uint64(r.Cycles))
	out = le.AppendUint64(out, uint64(r.Insts))
	out = le.AppendUint64(out, r.MemHash)
	out = le.AppendUint64(out, r.DataHash)
	for _, w := range r.Stats.words() {
		out = le.AppendUint64(out, uint64(*w))
	}
	out = le.AppendUint64(out, uint64(len(r.Output)))
	for _, v := range r.Output {
		out = le.AppendUint64(out, v)
	}
	return out, nil
}

// DecodeResult parses an EncodeResult payload, rejecting one whose
// length is not exactly what its Output count implies (a schema skew
// must recompute, not half-read).
func DecodeResult(data []byte) (*Result, error) {
	if len(data) < 8*resultWords || len(data)%8 != 0 {
		return nil, fmt.Errorf("dbm: decode cached result: %d-byte payload", len(data))
	}
	le := binary.LittleEndian
	word := func(i int) uint64 { return le.Uint64(data[8*i:]) }
	if n := word(resultWords - 1); n != uint64(len(data)/8-resultWords) {
		return nil, fmt.Errorf("dbm: decode cached result: %d output words in a %d-byte payload", n, len(data))
	}
	r := new(Result)
	r.Exit = int64(word(0))
	r.Cycles = int64(word(1))
	r.Insts = int64(word(2))
	r.MemHash = word(3)
	r.DataHash = word(4)
	for i, w := range r.Stats.words() {
		*w = int64(word(5 + i))
	}
	if n := len(data)/8 - resultWords; n > 0 {
		r.Output = make([]uint64, n)
		for i := range r.Output {
			r.Output[i] = word(resultWords + i)
		}
	}
	return r, nil
}
