package vm

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"
)

func TestResultEncodeDecodeRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		r    Result
	}{
		{"zero", Result{}},
		{"typical", Result{
			Exit:     42,
			Output:   []uint64{0, 1, math.MaxUint64, 0xdeadbeef},
			Cycles:   1_234_567,
			Insts:    7_654_321,
			MemHash:  0x1234_5678_9abc_def0,
			DataHash: math.MaxUint64,
		}},
		{"negative exit", Result{Exit: -1, Cycles: math.MaxInt64, Insts: math.MinInt64}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := EncodeResult(&tc.r)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if want := 8 * (resultWords + len(tc.r.Output)); len(data) != want {
				t.Fatalf("payload is %d bytes, want %d", len(data), want)
			}
			got, err := DecodeResult(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(*got, tc.r) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", *got, tc.r)
			}
		})
	}
}

// TestDecodeResultRejectsUnknownFields: a payload of the JSON layout
// the word codec replaced — here one carrying a field Result does not
// have — is another schema and never decodes.
func TestDecodeResultRejectsUnknownFields(t *testing.T) {
	if _, err := DecodeResult([]byte(`{"Exit":0,"Bogus":1}`)); err == nil {
		t.Fatal("payload with unknown field decoded without error")
	}
}

func TestDecodeResultRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, {}, []byte("not json"), []byte(`[1,2]`)} {
		if _, err := DecodeResult(data); err == nil {
			t.Fatalf("garbage %q decoded without error", data)
		}
	}
}

// TestDecodeResultRejectsMisshapenPayloads: a payload whose length is
// not what its Output count implies never decodes.
func TestDecodeResultRejectsMisshapenPayloads(t *testing.T) {
	r := Result{Exit: 3, Output: []uint64{7, 8, 9}, Cycles: 10, Insts: 11, MemHash: 12, DataHash: 13}
	data, err := EncodeResult(&r)
	if err != nil {
		t.Fatal(err)
	}
	old, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	withCount := func(n uint64) []byte {
		p := slices.Clone(data)
		binary.LittleEndian.PutUint64(p[8*(resultWords-1):], n)
		return p
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated byte", data[:len(data)-1]},
		{"truncated word", data[:len(data)-8]},
		{"fixed part short", data[:8*resultWords-8]},
		{"trailing byte", append(slices.Clone(data), 0)},
		{"trailing word", append(slices.Clone(data), make([]byte, 8)...)},
		{"count too high", withCount(4)},
		{"count too low", withCount(2)},
		{"count huge", withCount(math.MaxUint64)},
		{"json layout", old},
	}
	for _, tc := range cases {
		if got, err := DecodeResult(tc.data); err == nil {
			t.Errorf("%s: %d-byte payload decoded as %+v", tc.name, len(tc.data), *got)
		}
	}
}

// FuzzDecodeResult feeds arbitrary bytes to the cached-result decoder,
// as a corrupted or foreign store entry would: it must never panic, and
// any payload it accepts must re-encode to the same bytes (the layout
// has exactly one spelling of each Result) and decode to the same value.
func FuzzDecodeResult(f *testing.F) {
	valid, err := EncodeResult(&Result{Exit: 1, Output: []uint64{2, 3}, Cycles: 4, Insts: 5, MemHash: 6, DataHash: 7})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-8])
	f.Add([]byte{})
	f.Add([]byte(`{"Exit":0}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResult(data)
		if err != nil {
			return
		}
		again, err := EncodeResult(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %d-byte payload re-encodes to %d other bytes", len(data), len(again))
		}
		back, err := DecodeResult(again)
		if err != nil || !reflect.DeepEqual(back, r) {
			t.Fatalf("re-encoding decodes to %+v (%v), want %+v", back, err, r)
		}
	})
}
