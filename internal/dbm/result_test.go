package dbm

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"

	"janus/internal/vm"
)

func TestResultEncodeDecodeRoundTrip(t *testing.T) {
	r := Result{
		Result: vm.Result{
			Exit:     7,
			Output:   []uint64{1, math.MaxUint64},
			Cycles:   99,
			Insts:    1000,
			MemHash:  0xfeed_face_cafe_f00d,
			DataHash: math.MaxUint64 - 1,
		},
		Stats: Stats{
			TransBlocks:    12,
			TransInsts:     480,
			TransCycles:    960,
			ParCycles:      33,
			Invocations:    4,
			ParRegions:     3,
			HostParRegions: 3,
			StealRegions:   1,
			SeqFallbacks:   1,
			ParRecoveries:  2,
			DemotedLoops:   1,
			ChecksRun:      10,
			TxStarted:      6,
			TxCommits:      5,
			TxAborts:       1,
			SpecReads:      100,
			SpecWrites:     50,
			SpecInsts:      200,
		},
	}
	data, err := EncodeResult(&r)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeResult(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(*got, r) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", *got, r)
	}
}

func TestDecodeResultRejectsUnknownFields(t *testing.T) {
	if _, err := DecodeResult([]byte(`{"Exit":0,"NotAField":true}`)); err == nil {
		t.Fatal("payload with unknown field decoded without error")
	}
}

// filledResult returns a Result whose every field — the embedded
// vm.Result's and each Stats counter — holds a value no other field
// holds, set by reflection so a field added later is filled too.
func filledResult() Result {
	var r Result
	next := uint64(0x0101_0101_0101_0100)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Int64:
			next++
			v.SetInt(int64(next))
		case reflect.Uint64:
			next++
			v.SetUint(next)
		case reflect.Slice:
			s := reflect.MakeSlice(v.Type(), 3, 3)
			for i := 0; i < s.Len(); i++ {
				fill(s.Index(i))
			}
			v.Set(s)
		default:
			panic("filledResult: unhandled field kind " + v.Kind().String())
		}
	}
	fill(reflect.ValueOf(&r).Elem())
	return r
}

// TestResultCodecCoversEveryField round-trips a Result with every field
// distinct, so a codec that drops a field, or decodes one into
// another's place, fails.
func TestResultCodecCoversEveryField(t *testing.T) {
	r := filledResult()
	data, err := EncodeResult(&r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(*got, r) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", *got, r)
	}
}

// TestResultLayoutFollowsDeclarationOrder pins the payload word for
// word: the vm.Result scalars, then the Stats counters, each in
// declaration order, then the Output length and words.
func TestResultLayoutFollowsDeclarationOrder(t *testing.T) {
	r := filledResult()
	data, err := EncodeResult(&r)
	if err != nil {
		t.Fatal(err)
	}
	var want []uint64
	word := func(v reflect.Value) {
		if v.Kind() == reflect.Int64 {
			want = append(want, uint64(v.Int()))
		} else {
			want = append(want, v.Uint())
		}
	}
	vr := reflect.ValueOf(r.Result)
	for i := 0; i < vr.NumField(); i++ {
		if vr.Type().Field(i).Name != "Output" {
			word(vr.Field(i))
		}
	}
	st := reflect.ValueOf(r.Stats)
	for i := 0; i < st.NumField(); i++ {
		word(st.Field(i))
	}
	want = append(want, uint64(len(r.Output)))
	want = append(want, r.Output...)
	if len(data) != 8*len(want) {
		t.Fatalf("payload is %d bytes, want %d words", len(data), len(want))
	}
	for i, w := range want {
		if got := binary.LittleEndian.Uint64(data[8*i:]); got != w {
			t.Fatalf("word %d = %#x, want %#x", i, got, w)
		}
	}
}

// TestDecodeResultRejectsMisshapenPayloads: a payload whose length is
// not what its Output count implies, and a payload of the JSON layout
// the codec replaced, never decode.
func TestDecodeResultRejectsMisshapenPayloads(t *testing.T) {
	r := filledResult()
	data, err := EncodeResult(&r)
	if err != nil {
		t.Fatal(err)
	}
	old, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":            nil,
		"truncated word":   data[:len(data)-1],
		"truncated output": data[:len(data)-8],
		"fixed part only":  data[:8*resultWords-8],
		"trailing byte":    append(slices.Clone(data), 0),
		"trailing word":    append(slices.Clone(data), make([]byte, 8)...),
		"json layout":      old,
	}
	for name, p := range cases {
		if _, err := DecodeResult(p); err == nil {
			t.Errorf("%s: %d-byte payload decoded without error", name, len(p))
		}
	}
}
