package dbm

import (
	"fmt"
	"strings"
	"testing"

	"janus/internal/asm"
	"janus/internal/guest"
	"janus/internal/jrt"
	"janus/internal/rules"
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
// blocks, translation long since charged — allocates nothing, on the
// sequential path (the thread record alone) and inside a parallel region
// (bound sites and exit tests reach the loop record too).
func TestStepBlockZeroAlloc(t *testing.T) {
	exe := buildScale(t, 4096)
	ex, err := New(exe, scheduleOf(t, exe), DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	zeroAlloc := func(what string, th *jrt.Thread) {
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
			t.Fatalf("%s: steady-state stepBlock allocates %.1f objects per run, want 0", what, allocs)
		}
		if blk := ex.threads[th.ID].lastBlk; blk == nil || blk.linkBlk[0] == nil {
			t.Fatalf("%s: the loop's blocks were never linked", what)
		}
	}
	// Enter the first loop's region by hand and step its second thread.
	var l *loopRec
	for _, r := range ex.Sched.Rules {
		if ld, ok := r.Data.(rules.LoopInitData); ok {
			l = ex.loops[r.LoopID]
			entry := func(reg guest.Reg) uint64 { return ex.main.Reg(reg) }
			l.enter(ld, 4096, ex.main, entry)
			if err := ex.buildRegionThreads(l, entry, jrt.PartitionChunked(4096, 2)); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	ex.loop = l
	zeroAlloc("region thread", &ex.threads[1].region)
	if th := &ex.threads[1].region; l.lc.IsExit(th.Ctx.PC) || th.Ctx.Insts == 0 {
		t.Fatalf("the region thread did not stay inside its chunk: %+v", th.Ctx)
	}
	// The sequential path: no region, the LOOP_INIT handler latched off.
	ex.loop, l.seq = nil, true
	zeroAlloc("main thread", &jrt.Thread{ID: 0, Ctx: ex.main})
}
