package dbm

import (
	"bytes"
	"testing"

	"janus/internal/rules"
	"janus/internal/workloads"
)

// FuzzLoadSchedule feeds arbitrary bytes through the online half the
// way `janus run -schedule` does: rules.Load, then New and Run on
// 470.lbm. A schedule file is outside input, so every input must end in
// an error or a completed run — never a panic — and MaxSteps keeps
// every run short. Seeds: the analyser's schedule for the binary, and
// the same schedule with one loop's rules renumbered to the hostile
// IDs −7 and 1<<30.
func FuzzLoadSchedule(f *testing.F) {
	exe, libs, err := workloads.Build("470.lbm", workloads.Train, workloads.O3)
	if err != nil {
		f.Fatal(err)
	}
	sane := scheduleOf(f, exe)
	seed := func(s *rules.Schedule) {
		img, err := s.Save()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	seed(sane)
	for _, id := range []int32{-7, 1 << 30} {
		s := &rules.Schedule{ExeName: sane.ExeName, ExeSize: sane.ExeSize}
		for _, r := range sane.Rules {
			if r.LoopID == sane.Rules[0].LoopID {
				r.LoopID = id
			}
			s.Append(r)
		}
		seed(s)
	}
	cfg := DefaultConfig(4)
	cfg.MaxSteps = 20_000
	f.Fuzz(func(t *testing.T, img []byte) {
		s, err := rules.Load(img)
		if err != nil {
			return
		}
		ex, err := New(exe, s, cfg, libs...)
		if err != nil {
			return
		}
		defer ex.Close()
		ex.Run()
	})
}

// FuzzDecodeResult feeds arbitrary bytes to the cached-result decoder,
// as a corrupted or foreign store entry would: it must never panic, and
// any payload it accepts must re-encode to the same bytes (the layout
// has exactly one spelling of each Result).
func FuzzDecodeResult(f *testing.F) {
	r := filledResult()
	valid, err := EncodeResult(&r)
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
	})
}
