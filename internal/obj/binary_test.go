package obj

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func testImage(name string) (*Executable, []*Library) {
	exe := &Executable{Name: name, Entry: DefaultCodeBase, CodeBase: DefaultCodeBase, Code: make([]byte, 48), Section: sectionOf(DefaultDataBase, []byte{1, 2, 3})}
	return exe, []*Library{{Name: "libm", Base: DefaultLibBase, Code: make([]byte, 24)}}
}

// TestEagerBinaryHashesOnDemandOnce: a handle on a resident image knows
// its code size for free and hashes the image only when an identity is
// asked for, once.
func TestEagerBinaryHashesOnDemandOnce(t *testing.T) {
	exe, libs := testImage("a")
	b := NewBinary(exe, libs...)
	if b.CodeSize() != len(exe.Code) {
		t.Fatalf("CodeSize() = %d, code section is %d", b.CodeSize(), len(exe.Code))
	}
	if e, l, err := b.Image(); e != exe || len(l) != 1 || l[0] != libs[0] || err != nil {
		t.Fatalf("Image() = %v, %v, %v", e, l, err)
	}
	ids := make([]string, 8)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[i] = b.ID()
		}()
	}
	wg.Wait()
	want := Identity(exe, libs)
	for _, id := range ids {
		if id != want {
			t.Fatalf("ID() = %s, want %s", id, want)
		}
	}
	if withoutLibs := NewBinary(exe).ID(); withoutLibs == want || withoutLibs != exe.Fingerprint() {
		t.Fatalf("identity without libraries %s; with %s", withoutLibs, want)
	}
}

// TestLazyBinaryLoadsOnceAndChecksItsRecord: a lazy handle answers ID
// and CodeSize from its record without loading, loads once however many
// callers race for the image, and accepts an image that is the binary
// on record without telling anyone.
func TestLazyBinaryLoadsOnceAndChecksItsRecord(t *testing.T) {
	exe, libs := testImage("a")
	var loads atomic.Int32
	b := Lazy(Identity(exe, libs), len(exe.Code), func() (*Executable, []*Library, error) {
		loads.Add(1)
		return exe, libs, nil
	}, func(string, int) { t.Error("an honest record was reported stale") })
	if b.ID() != Identity(exe, libs) || b.CodeSize() != len(exe.Code) || loads.Load() != 0 {
		t.Fatalf("record not served without the image (%d loads)", loads.Load())
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if e, _, err := b.Image(); e != exe || err != nil {
				t.Errorf("Image() = %v, %v", e, err)
			}
		}()
	}
	wg.Wait()
	if loads.Load() != 1 {
		t.Fatalf("image loaded %d times, want 1", loads.Load())
	}
}

// TestLazyBinaryStaleRecord: an image that is not the binary on record
// corrects the handle — identity and code size — and is reported once,
// with what the image really is.
func TestLazyBinaryStaleRecord(t *testing.T) {
	exe, libs := testImage("a")
	other, _ := testImage("b")
	var reported []string
	b := Lazy(Identity(other, libs), 1, func() (*Executable, []*Library, error) { return exe, libs, nil },
		func(id string, codeSize int) {
			if codeSize != len(exe.Code) {
				t.Errorf("hook told code size %d, image has %d", codeSize, len(exe.Code))
			}
			reported = append(reported, id)
		})
	if b.ID() != Identity(other, libs) {
		t.Fatal("record not served before the image is loaded")
	}
	for i := 0; i < 2; i++ {
		if e, _, err := b.Image(); e != exe || err != nil {
			t.Fatalf("Image() = %v, %v", e, err)
		}
	}
	want := Identity(exe, libs)
	if len(reported) != 1 || reported[0] != want || b.ID() != want || b.CodeSize() != len(exe.Code) {
		t.Fatalf("after loading: reported %v, ID %s, CodeSize %d; image is %s with %d code bytes", reported, b.ID(), b.CodeSize(), want, len(exe.Code))
	}
}

// TestLazyBinaryLoadErrorIsNotRemembered: a failed load is returned and
// retried by the next caller.
func TestLazyBinaryLoadErrorIsNotRemembered(t *testing.T) {
	exe, libs := testImage("a")
	boom := errors.New("boom")
	calls := 0
	b := Lazy(Identity(exe, libs), len(exe.Code), func() (*Executable, []*Library, error) {
		if calls++; calls == 1 {
			return nil, nil, boom
		}
		return exe, libs, nil
	}, nil)
	if _, _, err := b.Image(); !errors.Is(err, boom) {
		t.Fatalf("first Image() error = %v, want boom", err)
	}
	if e, _, err := b.Image(); e != exe || err != nil {
		t.Fatalf("second Image() = %v, %v", e, err)
	}
}
