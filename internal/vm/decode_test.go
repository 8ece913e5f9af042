package vm

import (
	"sync"
	"testing"

	"janus/internal/asm"
	"janus/internal/guest"
	"janus/internal/obj"
)

// squareLib assembles a one-function library at base.
func squareLib(t *testing.T, base uint64) *obj.Library {
	t.Helper()
	lb := asm.NewBuilder("libm")
	sq := lb.Func("square")
	sq.Mov(guest.R0, guest.R1)
	sq.Op(guest.FMUL, guest.R0, guest.R1)
	sq.Ret()
	lib, err := lb.BuildLibrary(base)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// TestMachinesShareDecodedCode: an executable's code is decoded once.
// Machines loaded against the same library pointers — concurrently, too
// — share one patched instruction table; another library set links
// privately, with its own PLT targets, and leaves the shared form and
// the executable's own decoded code as they were.
func TestMachinesShareDecodedCode(t *testing.T) {
	libA := squareLib(t, obj.DefaultLibBase)
	libB := squareLib(t, obj.DefaultLibBase+0x1000_0000)
	b := asm.NewBuilder("uselib")
	b.Import("square")
	f := b.Func("main")
	f.MoviF(guest.R1, 5.0)
	f.Call("square")
	f.Mov(guest.R1, guest.R0)
	f.Movi(guest.R0, guest.SysWriteF)
	f.Syscall()
	f.Halt()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	plt := exe.Imports[0].PLT
	pltIdx := (plt - exe.CodeBase) / guest.InstSize

	ms := make([]*Machine, 8)
	var wg sync.WaitGroup
	for i := range ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := NewMachine(exe, libA)
			if err != nil {
				t.Error(err)
				return
			}
			ms[i] = m
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, m := range ms[1:] {
		if &m.exeInsts[0] != &ms[0].exeInsts[0] || &m.libInsts[0][0] != &ms[0].libInsts[0][0] {
			t.Fatal("machines over one library set decoded the code twice")
		}
	}
	other, err := NewMachine(exe, libB)
	if err != nil {
		t.Fatal(err)
	}
	if &other.exeInsts[0] == &ms[0].exeInsts[0] {
		t.Fatal("another library set shares the first set's patched code")
	}
	sqA, _ := libA.SymbolByName("square")
	sqB, _ := libB.SymbolByName("square")
	for _, c := range []struct {
		m    *Machine
		want uint64
	}{{ms[0], sqA.Addr}, {other, sqB.Addr}} {
		if got, ok := c.m.PLTTarget(plt); !ok || got != c.want {
			t.Fatalf("PLT target %#x, want %#x", got, c.want)
		}
		in, err := c.m.FetchInst(plt)
		if err != nil || in.Op != guest.JMP || uint64(in.Imm) != c.want {
			t.Fatalf("fetched PLT stub %v (%v), want JMP %#x", in, err, c.want)
		}
	}
	d := exe.Decoded()
	if d.Insts[pltIdx].Imm != 0 {
		t.Fatal("loading patched the executable's shared decoded code")
	}
	if insts, err := exe.Decode(); err != nil || &insts[0] != &d.Insts[0] {
		t.Fatal("Decode does not return the shared decoded code")
	}
	for _, lib := range []*obj.Library{libA, libB} {
		res, err := RunNative(exe, lib)
		if err != nil || len(res.Output) != 1 || res.Output[0] != 0x4039000000000000 { // 25.0
			t.Fatalf("run against %#x: %v, %v", lib.Base, res, err)
		}
	}

	// Without imports there is nothing to patch: machines fetch from the
	// executable's decoded code itself.
	plain := dataProgram(t, 4, func(i int) uint64 { return uint64(i) })
	m, err := NewMachine(plain)
	if err != nil {
		t.Fatal(err)
	}
	if &m.exeInsts[0] != &plain.Decoded().Insts[0] {
		t.Fatal("an import-free machine copied the decoded code")
	}
}
