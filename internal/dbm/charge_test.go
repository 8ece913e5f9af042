package dbm

import (
	"runtime"
	"testing"

	"janus/internal/asm"
	"janus/internal/guest"
	"janus/internal/obj"
)

// buildMixedModeProgram builds two parallelisable loops that call one
// local function, clamp:
//
//	loop A: dstA[i] = clamp(srcA[i])       scan-eligible, subdividable
//	loop B: dstB[i] = isq(clamp(srcB[i]))  isq is a library call, so the
//	                                       body speculates and the region
//	                                       stays round-robin
//
// clamp has one block only negative arguments reach and one only
// arguments above 1000 reach. In srcA just the lowest and the highest
// iterations hold such values, so in loop A those blocks are dispatched
// on the first and the last guest thread's account alone — by whichever
// host worker ran the piece. In srcB every thread meets both.
func buildMixedModeProgram(t *testing.T, n int64, threads int) (*obj.Executable, *obj.Library) {
	t.Helper()
	lb := asm.NewBuilder("libsq")
	sq := lb.Func("isq")
	sq.Mov(guest.R0, guest.R1)
	sq.Op(guest.IMUL, guest.R0, guest.R1)
	sq.Ret()
	lib, err := lb.BuildLibrary(obj.DefaultLibBase)
	if err != nil {
		t.Fatal(err)
	}

	b := asm.NewBuilder("mixedmode")
	b.Import("isq")
	srcA, srcB := make([]int64, n), make([]int64, n)
	edge := n / int64(2*threads) // half of one thread's chunk
	for i := range srcA {
		switch i := int64(i); {
		case i < edge:
			srcA[i] = -i - 1
		case i >= n-edge:
			srcA[i] = 2000 + i
		default:
			srcA[i] = i
		}
		srcB[i] = int64(i) + 1001
		if i%2 == 0 {
			srcB[i] = -int64(i) - 1
		}
	}
	b.DataI64("srcA", srcA)
	b.DataI64("srcB", srcB)
	b.Data("dstA", int(n*8))
	b.Data("dstB", int(n*8))

	c := b.Func("clamp")
	notLow, notHigh := c.NewLabel(), c.NewLabel()
	c.Mov(guest.R0, guest.R1)
	c.Cmpi(guest.R1, 0)
	c.J(guest.JGE, notLow)
	c.OpI(guest.IMULI, guest.R0, 3)
	c.OpI(guest.ADDI, guest.R0, 1)
	c.Bind(notLow)
	c.Cmpi(guest.R1, 1000)
	c.J(guest.JLE, notHigh)
	c.OpI(guest.IMULI, guest.R0, 5)
	c.OpI(guest.ADDI, guest.R0, 7)
	c.Bind(notHigh)
	c.OpI(guest.ADDI, guest.R0, 2)
	c.Ret()

	f := b.Func("main")
	loopA, doneA, loopB, doneB := f.NewLabel(), f.NewLabel(), f.NewLabel(), f.NewLabel()
	f.MoviData(guest.R8, "srcA", 0)
	f.MoviData(guest.R9, "dstA", 0)
	f.Movi(guest.R6, 0) // induction in a callee-saved register
	f.Bind(loopA)
	f.Cmpi(guest.R6, n)
	f.J(guest.JGE, doneA)
	f.Ld(guest.R1, guest.Mem{Base: guest.R8, Index: guest.R6, Scale: 8})
	f.Call("clamp")
	f.St(guest.Mem{Base: guest.R9, Index: guest.R6, Scale: 8}, guest.R0)
	f.OpI(guest.ADDI, guest.R6, 1)
	f.J(guest.JMP, loopA)
	f.Bind(doneA)
	f.MoviData(guest.R8, "srcB", 0)
	f.MoviData(guest.R9, "dstB", 0)
	f.Movi(guest.R6, 0)
	f.Bind(loopB)
	f.Cmpi(guest.R6, n)
	f.J(guest.JGE, doneB)
	f.Ld(guest.R1, guest.Mem{Base: guest.R8, Index: guest.R6, Scale: 8})
	f.Call("clamp")
	f.Mov(guest.R1, guest.R0)
	f.Call("isq")
	f.St(guest.Mem{Base: guest.R9, Index: guest.R6, Scale: 8}, guest.R0)
	f.OpI(guest.ADDI, guest.R6, 1)
	f.J(guest.JMP, loopB)
	f.Bind(doneB)
	f.LdData(guest.R1, "dstB", 8*(n-1))
	f.Movi(guest.R0, guest.SysWrite)
	f.Syscall()
	f.Halt()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return exe, lib
}

// TestTranslationChargeAcrossExecutionModes pins the one charging rule —
// a block is charged to guest thread t the first time t dispatches it,
// wherever its translation lives — on the case no workload reaches: a
// block a worker translated into its cache on another owner's account
// during a stolen piece, then dispatched by that worker's own guest
// thread in a later round-robin region. Charging on the cache miss
// instead finds the block warm and under-charges that thread.
func TestTranslationChargeAcrossExecutionModes(t *testing.T) {
	const n, threads = 256, 4
	exe, lib := buildMixedModeProgram(t, n, threads)
	native := nativeOf(t, exe, lib)

	run := func(hostParallel, stealing bool) *Result {
		cfg := DefaultConfig(threads)
		cfg.HostParallel, cfg.WorkStealing = hostParallel, stealing
		res, _ := pipelineCfg(t, exe, cfg, lib)
		if res.Output[0] != native.Output[0] || res.DataHash != native.DataHash {
			t.Fatalf("hostParallel=%v stealing=%v: result differs from native", hostParallel, stealing)
		}
		return res
	}
	rr := run(false, false)
	if rr.Stats.ParRegions != 2 || rr.Stats.TxStarted == 0 {
		t.Fatalf("want both loops parallelised, the second speculating: %+v", rr.Stats)
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, max(runtime.NumCPU(), 4)} {
		runtime.GOMAXPROCS(procs)
		for _, stealing := range []bool{false, true} {
			got := run(true, stealing)
			if got.Stats.HostParRegions != 1 || (got.Stats.StealRegions == 1) != stealing {
				t.Fatalf("GOMAXPROCS=%d stealing=%v: want loop A alone on the speculative engine: %+v", procs, stealing, got.Stats)
			}
			if got.Cycles != rr.Cycles || got.Insts != rr.Insts || got.DataHash != rr.DataHash {
				t.Errorf("GOMAXPROCS=%d stealing=%v: cycles/insts/hash %d/%d/%#x, round-robin %d/%d/%#x",
					procs, stealing, got.Cycles, got.Insts, got.DataHash, rr.Cycles, rr.Insts, rr.DataHash)
			}
			if got.Stats.TransBlocks != rr.Stats.TransBlocks || got.Stats.TransInsts != rr.Stats.TransInsts || got.Stats.TransCycles != rr.Stats.TransCycles {
				t.Errorf("GOMAXPROCS=%d stealing=%v: translated %d blocks/%d insts/%d cycles, round-robin %d/%d/%d",
					procs, stealing, got.Stats.TransBlocks, got.Stats.TransInsts, got.Stats.TransCycles,
					rr.Stats.TransBlocks, rr.Stats.TransInsts, rr.Stats.TransCycles)
			}
		}
	}
}
