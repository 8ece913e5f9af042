package workloads

import (
	"encoding/binary"
	"strings"
	"testing"
)

// TestIdentCodec: an identity record round-trips, and a record that is
// cut short, carries trailing bytes, names no binary, names something
// obj.Identity could not have produced or has no code is refused.
func TestIdentCodec(t *testing.T) {
	exe := strings.Repeat("0123456789abcdef", 4)
	lib := strings.Repeat("fedcba9876543210", 4)
	for _, id := range []ident{{ID: exe, CodeSize: 1}, {ID: exe + "+" + lib, CodeSize: 1 << 40}} {
		data, err := encodeIdent(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != 8+len(id.ID) {
			t.Fatalf("%+v: %d-byte record, want %d", id, len(data), 8+len(id.ID))
		}
		if got, err := decodeIdent(data); err != nil || got != id {
			t.Fatalf("%+v: decoded as %+v (%v)", id, got, err)
		}
	}
	record := func(codeSize int64, id string) []byte {
		return append(binary.LittleEndian.AppendUint64(nil, uint64(codeSize)), id...)
	}
	valid := record(4096, exe)
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated code size", valid[:7]},
		{"truncated id", valid[:len(valid)-1]},
		{"trailing byte", append(record(4096, exe), 0)},
		{"trailing plus", record(4096, exe+"+")},
		{"empty id", record(4096, "")},
		{"not hex", record(4096, "someone-else")},
		{"upper-case hex", record(4096, strings.ToUpper(exe))},
		{"short fingerprint", record(4096, exe[:62])},
		{"lib not hex", record(4096, exe+"+"+strings.Repeat("g", 64))},
		{"joined by comma", record(4096, exe+","+lib)},
		{"zero code size", record(0, exe)},
		{"negative code size", record(-1, exe)},
	}
	for _, tc := range cases {
		if got, err := decodeIdent(tc.data); err == nil {
			t.Errorf("%s: %d-byte record decoded as %+v", tc.name, len(tc.data), got)
		}
	}
}
