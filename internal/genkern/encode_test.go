package genkern

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// validShapes is the table of hand-picked Validate-clean shapes the
// round-trip tests pin, covering every kind and both nest orientations.
func validShapes() []Shape {
	return []Shape{
		{Segs: []Seg{{Kind: KindDoallConst, N: 96, Dist: 1, Arrays: 2}}},
		{Segs: []Seg{{Kind: KindDoallConst, N: MaxTrip, Dist: MaxDist, Arrays: MaxArrays, Collide: true, OuterHot: true}}},
		{Segs: []Seg{{Kind: KindDoallRuntime, N: 128, Dist: 3, Arrays: 4}}},
		{Segs: []Seg{{Kind: KindCarried, N: 224, Dist: 8, Arrays: 2}}},
		{Segs: []Seg{{Kind: KindMustAlias, N: 160, Dist: 5, Arrays: 3}}},
		{Segs: []Seg{{Kind: KindMayAlias, N: 96, Dist: 2, Arrays: 2, Collide: true}}},
		{Segs: []Seg{{Kind: KindIntReduction, N: 128, Dist: 1, Arrays: 2}}},
		{Segs: []Seg{{Kind: KindFPReduction, N: 96, Dist: 1, Arrays: 2}}},
		{Segs: []Seg{{Kind: KindNested, N: 96, Inner: 12, Dist: 1, Arrays: 2, OuterHot: true}}},
		{Segs: []Seg{{Kind: KindNested, N: 4, Inner: 224, Dist: 2, Arrays: 3}}},
		{Segs: []Seg{{Kind: KindIrregular, N: 256, Dist: 1, Arrays: 2}}},
		{Segs: []Seg{{Kind: KindIrregular, N: 4096, Dist: 16, Arrays: 4}}},
		{Segs: []Seg{{Kind: KindSyscall, N: 4, Dist: 1, Arrays: 2}}},
		{Segs: []Seg{{Kind: KindLibcall, N: 160, Dist: 3, Arrays: 2}}},
		{Segs: []Seg{{Kind: KindIndexChase, N: 96, Dist: 1, Arrays: 2, Collide: true}}},
		{Segs: []Seg{
			{Kind: KindCarried, N: 96, Dist: 1, Arrays: 2},
			{Kind: KindSyscall, N: 8, Dist: 4, Arrays: 3, OuterHot: true},
			{Kind: KindNested, N: 16, Inner: 96, Dist: 16, Arrays: 4},
			{Kind: KindDoallConst, N: 320, Dist: 2, Arrays: 2},
			{Kind: KindIndexChase, N: 200, Dist: 9, Arrays: 3},
			{Kind: KindIrregular, N: 1000, Dist: 11, Arrays: 2},
		}},
	}
}

func TestShapeRoundTrip(t *testing.T) {
	for i, sh := range validShapes() {
		if err := sh.Validate(); err != nil {
			t.Fatalf("shape %d: table entry is not valid: %v", i, err)
		}
		enc := EncodeShape(sh)
		dec := DecodeShape(enc)
		if !shapeEqual(sh, dec) {
			t.Errorf("shape %d: encode∘decode is not the identity:\n in: %+v\nout: %+v", i, sh, dec)
		}
		// The round trip must also be byte-stable (canonical encoding).
		if !bytes.Equal(enc, EncodeShape(dec)) {
			t.Errorf("shape %d: re-encoding the decoded shape changed bytes", i)
		}
	}
}

func TestDeriveShapeIsValid(t *testing.T) {
	for seed := uint64(0); seed <= uint64(corpusSeeds); seed++ {
		sh := DeriveShape(seed)
		if err := sh.Validate(); err != nil {
			t.Fatalf("DeriveShape(%d) is not Validate-clean: %v", seed, err)
		}
		if !shapeEqual(sh, DecodeShape(EncodeShape(sh))) {
			t.Fatalf("DeriveShape(%d) does not round-trip through the genome encoding", seed)
		}
	}
}

// TestDecodeArbitraryBytes pins DecodeShape's totality: arbitrary byte
// strings (including empty, short, oversized and adversarial ones)
// decode without panicking into shapes that pass Validate and round-trip
// canonically.
func TestDecodeArbitraryBytes(t *testing.T) {
	inputs := [][]byte{
		nil,
		{},
		{0},
		{0xff},
		{0, 0},
		{1, 0},
		{1, 255},
		{1, 7, 0xff},
		bytes.Repeat([]byte{0xff}, 3),
		bytes.Repeat([]byte{0xff}, 64),
		bytes.Repeat([]byte{0x00}, 64),
		bytes.Repeat([]byte{0xa5}, 200),
		{1, 2, byte(KindSyscall), 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
	}
	// A deterministic pseudo-random sweep widens the table.
	r := newRng(42)
	for i := 0; i < 500; i++ {
		n := r.intn(120)
		buf := make([]byte, n)
		for j := range buf {
			buf[j] = byte(r.next())
		}
		inputs = append(inputs, buf)
	}
	for i, in := range inputs {
		sh := DecodeShape(in)
		if err := sh.Validate(); err != nil {
			t.Fatalf("input %d (%x): decoded shape fails Validate: %v", i, in, err)
		}
		if !shapeEqual(sh, DecodeShape(EncodeShape(sh))) {
			t.Fatalf("input %d (%x): normalised shape does not round-trip", i, in)
		}
	}
}

func TestParseShapeHex(t *testing.T) {
	sh := validShapes()[3]
	got, err := ParseShapeHex(ShapeHex(sh))
	if err != nil {
		t.Fatal(err)
	}
	if !shapeEqual(sh, got) {
		t.Fatalf("hex round trip lost the shape: %+v vs %+v", sh, got)
	}
	if _, err := ParseShapeHex("not-hex"); err == nil {
		t.Fatal("malformed hex did not error")
	}
}

// fuzzSeedShapes is FuzzShapeVector's seed corpus: the first eight
// seed-derived shapes, then the hand-picked table.
func fuzzSeedShapes() []Shape {
	var out []Shape
	for seed := uint64(1); seed <= 8; seed++ {
		out = append(out, DeriveShape(seed))
	}
	return append(out, validShapes()...)
}

// fuzzOptions is the oracle configuration FuzzShapeVector runs every
// input under; the fuzzer feeds it input-data seed 1.
var fuzzOptions = Options{Threads: 4}

// FuzzShapeVector is the structured-genome fuzz target: the native
// fuzzer mutates genome bytes directly (structure, not hashes). Every
// input must normalise into a valid shape, and the shape must survive
// the full differential oracle. Finds land in
// testdata/fuzz/FuzzShapeVector, which plain go test replays.
func FuzzShapeVector(f *testing.F) {
	for _, sh := range fuzzSeedShapes() {
		f.Add(EncodeShape(sh))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sh := DecodeShape(data)
		if err := sh.Validate(); err != nil {
			t.Fatalf("decoded shape fails Validate: %v", err)
		}
		if !shapeEqual(sh, DecodeShape(EncodeShape(sh))) {
			t.Fatal("decoded shape does not re-encode canonically")
		}
		if _, err := DiffShape(sh, 1, fuzzOptions); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFuzzSeedsCatchPlantedBug proves FuzzShapeVector's seed corpus has
// teeth: under the planted mis-classification, at least one seed shape
// must catch the plant, and every other one must catch it too or be
// unable to arm it. A seed on which the plant escapes, or that fails
// for another reason, is a hole in the remaining shape fuzzer.
func TestFuzzSeedsCatchPlantedBug(t *testing.T) {
	planted := fuzzOptions
	planted.PlantDOALL = true
	caught := 0
	for i, sh := range fuzzSeedShapes() {
		_, err := DiffShape(sh, 1, planted)
		switch {
		case err != nil && strings.Contains(err.Error(), plantedCaught):
			caught++
		case !errors.Is(err, ErrPlantInert):
			t.Errorf("seed shape %d (%s): the plant armed and was not caught: %v", i, ShapeHex(sh), err)
		}
	}
	if caught == 0 {
		t.Error("no FuzzShapeVector seed shape catches the planted mis-classification")
	}
	t.Logf("%d seed shapes catch the plant", caught)
}
