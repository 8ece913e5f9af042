package genkern

import (
	"encoding/hex"
	"fmt"
)

// Shape-vector genome encoding.
//
// A Shape — not the 8-byte seed that derives one — is the unit the
// native fuzzer (FuzzShapeVector) mutates. The encoding below is the
// genome: a versioned, fixed-width byte vector in which every field of
// every segment occupies a known offset, so byte-level mutation
// perturbs structure rather than teleporting to an unrelated kernel the
// way mutating a hash-expanded seed does.
//
// DecodeShape is total: *every* byte string, of any length, normalises
// into a Validate-clean Shape by modular clamping of each field into
// its legal range. Clamping is the identity on in-range values, so
// EncodeShape/DecodeShape round-trip exactly on valid shapes.
//
// Layout (little-endian):
//
//	byte 0      encoding version (ShapeEncodingVersion)
//	byte 1      segment count, clamped into 1..MaxShapeSegs
//	then per segment, 8 bytes:
//	  +0  kind          clamped into the drawable SegKind range
//	  +1  flags         bit0 Collide, bit1 OuterHot
//	  +2  N     uint16  trip count, clamped per kind
//	  +4  Inner uint16  nested inner trip, clamped per kind (0 otherwise)
//	  +6  dist          clamped into 1..MaxDist
//	  +7  arrays        clamped into MinArrays..MaxArrays

// ShapeEncodingVersion tags the genome layout. Bump it whenever the
// record layout or any clamp range changes; decoders normalise foreign
// versions into the current layout rather than failing, so an old
// corpus stays replayable (its shapes just re-canonicalise).
const ShapeEncodingVersion = 1

// MaxShapeSegs bounds the genome's segment count. DeriveShape emits at
// most 4 segments; a fuzzed genome may carry up to this many.
const MaxShapeSegs = 6

// Per-field legal ranges. Hot trip counts stay above the selector's
// profitability floor (minHotTrip) and below a bound that keeps a
// single oracle run cheap; the narrow dimension of a nest, syscall
// trips and the geometric-induction range mirror DeriveShape's draws.
const (
	MaxTrip          = 320
	MinNarrowTrip    = 2
	MaxNarrowTrip    = 16
	MinSyscallTrip   = 4
	MaxSyscallTrip   = 16
	MinIrregularTrip = 256
	MaxIrregularTrip = 4096
	MaxDist          = 16
	MinArrays        = 2
	MaxArrays        = 4
)

const segRecordSize = 8

// clampInto maps v into [lo, hi] by modular wrap. It is the identity
// for v already in range — the property the round-trip test pins.
func clampInto(v, lo, hi int64) int64 {
	span := hi - lo + 1
	r := (v - lo) % span
	if r < 0 {
		r += span
	}
	return lo + r
}

// Validate reports whether the shape is a legal genome: segment count,
// kind, and every per-kind field range as DecodeShape would clamp them.
// Generate accepts exactly the shapes Validate accepts.
func (sh Shape) Validate() error {
	if len(sh.Segs) < 1 || len(sh.Segs) > MaxShapeSegs {
		return fmt.Errorf("genkern: shape has %d segments, want 1..%d", len(sh.Segs), MaxShapeSegs)
	}
	for i, s := range sh.Segs {
		if int(s.Kind) >= numSegKinds {
			return fmt.Errorf("genkern: segment %d: kind %d out of range (max %d)", i, s.Kind, numSegKinds-1)
		}
		if s.Dist < 1 || s.Dist > MaxDist {
			return fmt.Errorf("genkern: segment %d (%v): distance %d outside 1..%d", i, s.Kind, s.Dist, MaxDist)
		}
		if s.Arrays < MinArrays || s.Arrays > MaxArrays {
			return fmt.Errorf("genkern: segment %d (%v): %d arrays outside %d..%d", i, s.Kind, s.Arrays, MinArrays, MaxArrays)
		}
		hot := func(n int64, what string) error {
			if n < minHotTrip || n > MaxTrip {
				return fmt.Errorf("genkern: segment %d (%v): %s trip %d outside %d..%d", i, s.Kind, what, n, minHotTrip, MaxTrip)
			}
			return nil
		}
		switch s.Kind {
		case KindNested:
			hotN, narrowN := s.N, s.Inner
			hotWhat, narrowWhat := "outer", "inner"
			if !s.OuterHot {
				hotN, narrowN = s.Inner, s.N
				hotWhat, narrowWhat = "inner", "outer"
			}
			if err := hot(hotN, hotWhat); err != nil {
				return err
			}
			if narrowN < MinNarrowTrip || narrowN > MaxNarrowTrip {
				return fmt.Errorf("genkern: segment %d (%v): %s trip %d outside %d..%d", i, s.Kind, narrowWhat, narrowN, MinNarrowTrip, MaxNarrowTrip)
			}
		case KindIrregular:
			if s.N < MinIrregularTrip || s.N > MaxIrregularTrip {
				return fmt.Errorf("genkern: segment %d (%v): trip %d outside %d..%d", i, s.Kind, s.N, MinIrregularTrip, MaxIrregularTrip)
			}
			if s.Inner != 0 {
				return fmt.Errorf("genkern: segment %d (%v): inner trip %d on a non-nested kind", i, s.Kind, s.Inner)
			}
		case KindSyscall:
			if s.N < MinSyscallTrip || s.N > MaxSyscallTrip {
				return fmt.Errorf("genkern: segment %d (%v): trip %d outside %d..%d", i, s.Kind, s.N, MinSyscallTrip, MaxSyscallTrip)
			}
			if s.Inner != 0 {
				return fmt.Errorf("genkern: segment %d (%v): inner trip %d on a non-nested kind", i, s.Kind, s.Inner)
			}
		default:
			if err := hot(s.N, "loop"); err != nil {
				return err
			}
			if s.Inner != 0 {
				return fmt.Errorf("genkern: segment %d (%v): inner trip %d on a non-nested kind", i, s.Kind, s.Inner)
			}
		}
	}
	return nil
}

// EncodeShape serialises the shape into its canonical genome bytes.
// Fields are truncated to their record widths; encode∘decode is the
// identity exactly on Validate-clean shapes.
func EncodeShape(sh Shape) []byte {
	out := make([]byte, 2+len(sh.Segs)*segRecordSize)
	out[0] = ShapeEncodingVersion
	out[1] = byte(len(sh.Segs))
	for i, s := range sh.Segs {
		rec := out[2+i*segRecordSize:]
		rec[0] = byte(s.Kind)
		var flags byte
		if s.Collide {
			flags |= 1
		}
		if s.OuterHot {
			flags |= 2
		}
		rec[1] = flags
		rec[2] = byte(s.N)
		rec[3] = byte(s.N >> 8)
		rec[4] = byte(s.Inner)
		rec[5] = byte(s.Inner >> 8)
		rec[6] = byte(s.Dist)
		rec[7] = byte(s.Arrays)
	}
	return out
}

// DecodeShape normalises arbitrary bytes into a valid Shape. It never
// fails and never panics: missing bytes read as zero, every field is
// clamped into its legal range, and trailing bytes beyond the declared
// segment count are ignored. The result always passes Validate.
func DecodeShape(data []byte) Shape {
	at := func(i int) byte {
		if i >= 0 && i < len(data) {
			return data[i]
		}
		return 0
	}
	n := 1
	if nb := at(1); nb >= 1 {
		n = int(nb-1)%MaxShapeSegs + 1
	}
	sh := Shape{Segs: make([]Seg, n)}
	for i := range sh.Segs {
		off := 2 + i*segRecordSize
		var s Seg
		s.Kind = SegKind(clampInto(int64(at(off)), 0, int64(numSegKinds-1)))
		flags := at(off + 1)
		s.Collide = flags&1 != 0
		s.OuterHot = flags&2 != 0
		rawN := int64(at(off+2)) | int64(at(off+3))<<8
		rawInner := int64(at(off+4)) | int64(at(off+5))<<8
		s.Dist = clampInto(int64(at(off+6)), 1, MaxDist)
		s.Arrays = int(clampInto(int64(at(off+7)), MinArrays, MaxArrays))
		switch s.Kind {
		case KindNested:
			if s.OuterHot {
				s.N = clampInto(rawN, minHotTrip, MaxTrip)
				s.Inner = clampInto(rawInner, MinNarrowTrip, MaxNarrowTrip)
			} else {
				s.N = clampInto(rawN, MinNarrowTrip, MaxNarrowTrip)
				s.Inner = clampInto(rawInner, minHotTrip, MaxTrip)
			}
		case KindIrregular:
			s.N = clampInto(rawN, MinIrregularTrip, MaxIrregularTrip)
		case KindSyscall:
			s.N = clampInto(rawN, MinSyscallTrip, MaxSyscallTrip)
		default:
			s.N = clampInto(rawN, minHotTrip, MaxTrip)
		}
		sh.Segs[i] = s
	}
	return sh
}

// ShapeHex renders the genome as the hex string repro commands and
// regression fixtures carry.
func ShapeHex(sh Shape) string { return hex.EncodeToString(EncodeShape(sh)) }

// ParseShapeHex decodes a -genkern.shape hex string. The only possible
// error is malformed hex; the decoded bytes always normalise.
func ParseShapeHex(s string) (Shape, error) {
	data, err := hex.DecodeString(s)
	if err != nil {
		return Shape{}, fmt.Errorf("genkern: shape hex: %w", err)
	}
	return DecodeShape(data), nil
}

// shapeEqual reports structural equality of two shapes.
func shapeEqual(a, b Shape) bool {
	if len(a.Segs) != len(b.Segs) {
		return false
	}
	for i := range a.Segs {
		if a.Segs[i] != b.Segs[i] {
			return false
		}
	}
	return true
}
