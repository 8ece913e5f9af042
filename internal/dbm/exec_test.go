package dbm

import (
	"fmt"
	"strings"
	"testing"

	"janus/internal/asm"
	"janus/internal/guest"
	"janus/internal/jrt"
)

// TestFaultAddressMidBlock: a fault in the middle of a translated block
// reports the faulting instruction's own application address, not the
// block's start (which is all Ctx.PC holds while a block executes).
func TestFaultAddressMidBlock(t *testing.T) {
	b := asm.NewBuilder("div0")
	f := b.Func("main")
	f.Movi(guest.R1, 10)
	f.Movi(guest.R2, 0)
	f.OpI(guest.ADDI, guest.R1, 1)
	f.Op(guest.IDIV, guest.R1, guest.R2)
	f.Halt()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := New(exe, nil, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = ex.Run()
	if want := fmt.Sprintf("divide by zero at %#x", exe.Entry+3*guest.InstSize); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if ex.steps != 4 || ex.main.Insts != 4 {
		t.Fatalf("counted %d steps, %d instructions up to the fault, want 4", ex.steps, ex.main.Insts)
	}
}

// TestStepBlockZeroAlloc asserts steady-state block dispatch — linked
// blocks, translation long since charged — allocates nothing.
func TestStepBlockZeroAlloc(t *testing.T) {
	ex, err := New(buildScale(t, 4096), nil, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	th := &jrt.Thread{ID: 0, Ctx: ex.main}
	step := func() {
		for i := 0; i < 4; i++ {
			if err := ex.stepBlock(th); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 8; i++ {
		step() // translate and link the loop's blocks
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("steady-state stepBlock allocates %.1f objects per run, want 0", allocs)
	}
	if blk := ex.lastBlk[0]; blk == nil || blk.linkBlk[0] == nil {
		t.Fatal("the loop's blocks were never linked")
	}
}
