package dbm

import (
	"testing"

	"janus/internal/analyzer"
	"janus/internal/asm"
	"janus/internal/guest"
	"janus/internal/obj"
	"janus/internal/rules"
)

// TestSpeculationAbortAndRetry exercises the full abort path of the
// just-in-time STM: a shared library function performs a read-modify-
// write on a global counter, so concurrent transactions from different
// threads conflict. Value-based validation must catch the conflicts,
// the losers must roll back to their checkpoints and re-execute
// non-speculatively once oldest, and the final counter must still equal
// the iteration count (increments commute, so the program's final
// memory state is order-independent).
func TestSpeculationAbortAndRetry(t *testing.T) {
	const n = 64

	// Library: bump() { *counter += 1 } — the counter address arrives
	// in R1.
	lb := asm.NewBuilder("libcnt")
	bump := lb.Func("bump")
	bump.Ld(guest.R0, guest.Mem{Base: guest.R1, Index: guest.RegNone, Scale: 1})
	bump.OpI(guest.ADDI, guest.R0, 1)
	bump.St(guest.Mem{Base: guest.R1, Index: guest.RegNone, Scale: 1}, guest.R0)
	bump.Ret()
	lib, err := lb.BuildLibrary(obj.DefaultLibBase)
	if err != nil {
		t.Fatal(err)
	}

	// Program: for i in 0..n-1 { bump(&counter) }; write(counter).
	b := asm.NewBuilder("spinbump")
	b.Import("bump")
	b.Data("counter", 8)
	f := b.Func("main")
	loop, done := f.NewLabel(), f.NewLabel()
	f.Movi(guest.R6, 0)
	f.Bind(loop)
	f.Cmpi(guest.R6, n)
	f.J(guest.JGE, done)
	f.MoviData(guest.R1, "counter", 0)
	f.Call("bump")
	f.OpI(guest.ADDI, guest.R6, 1)
	f.J(guest.JMP, loop)
	f.Bind(done)
	f.LdData(guest.R2, "counter", 0)
	f.Movi(guest.R0, guest.SysWrite)
	f.Mov(guest.R1, guest.R2)
	f.Syscall()
	f.Halt()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	p, err := analyzer.Analyze(exe)
	if err != nil {
		t.Fatal(err)
	}
	// The loop has a library call, so it is ambiguous (dynamic). Select
	// it for speculation without dependence profiling, which would
	// otherwise (correctly) reject it — the point here is to drive the
	// abort machinery.
	p.SelectLoops(analyzer.SelectOptions{UseChecks: true})
	selected := 0
	for _, li := range p.Loops {
		if li.Selected {
			selected++
		}
	}
	if selected != 1 {
		t.Fatalf("selected %d loops", selected)
	}
	sched, err := p.GenParallelSchedule()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(4)
	ex, err := New(exe, sched, cfg, lib)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != n {
		t.Fatalf("counter = %d, want %d (lost updates despite STM)", res.Output[0], n)
	}
	if ex.Stats.TxAborts == 0 {
		t.Fatal("conflicting RMW library calls must abort at least once")
	}
	if ex.Stats.TxCommits == 0 {
		t.Fatal("no transaction ever committed")
	}
	t.Logf("tx: %d started, %d commits, %d aborts", ex.Stats.TxStarted, ex.Stats.TxCommits, ex.Stats.TxAborts)
}

// TestSpeculationCommitHoldsUntilOldest checks that a transaction with
// buffered writes coming from a non-oldest thread still commits with
// correct values (the scheduler only steps aborted threads when they
// are oldest, and validation serialises RMW chains).
func TestSpeculationManyThreads(t *testing.T) {
	const n = 96
	lb := asm.NewBuilder("libcnt")
	bump := lb.Func("bump")
	bump.Ld(guest.R0, guest.Mem{Base: guest.R1, Index: guest.RegNone, Scale: 1})
	bump.OpI(guest.ADDI, guest.R0, 3)
	bump.St(guest.Mem{Base: guest.R1, Index: guest.RegNone, Scale: 1}, guest.R0)
	bump.Ret()
	lib, err := lb.BuildLibrary(obj.DefaultLibBase)
	if err != nil {
		t.Fatal(err)
	}
	b := asm.NewBuilder("spinbump8")
	b.Import("bump")
	b.Data("counter", 8)
	f := b.Func("main")
	loop, done := f.NewLabel(), f.NewLabel()
	f.Movi(guest.R6, 0)
	f.Bind(loop)
	f.Cmpi(guest.R6, n)
	f.J(guest.JGE, done)
	f.MoviData(guest.R1, "counter", 0)
	f.Call("bump")
	f.OpI(guest.ADDI, guest.R6, 1)
	f.J(guest.JMP, loop)
	f.Bind(done)
	f.LdData(guest.R2, "counter", 0)
	f.Movi(guest.R0, guest.SysWrite)
	f.Mov(guest.R1, guest.R2)
	f.Syscall()
	f.Halt()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := analyzer.Analyze(exe)
	if err != nil {
		t.Fatal(err)
	}
	p.SelectLoops(analyzer.SelectOptions{UseChecks: true})
	sched, err := p.GenParallelSchedule()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := New(exe, sched, DefaultConfig(8), lib)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != 3*n {
		t.Fatalf("counter = %d, want %d", res.Output[0], 3*n)
	}
}

// TestTransactionInStraightLineCodePinned wraps the middle of a DOALL
// loop's straight-line body — LD, IMULI, ST — in a transaction that
// commits before the induction step, and pins what the transaction
// machinery counted to values captured before blocks were split into
// runs and sites. The LD is the TX_START site; IMULI and ST form a run
// that executes inside the transaction, so a run that skipped the
// per-access charge there would lower SpecInsts and the cycle count.
func TestTransactionInStraightLineCodePinned(t *testing.T) {
	const n = 256
	exe := buildScale(t, n)
	p, err := analyzer.Analyze(exe)
	if err != nil {
		t.Fatal(err)
	}
	p.SelectLoops(analyzer.SelectOptions{UseChecks: true})
	sched, err := p.GenParallelSchedule()
	if err != nil {
		t.Fatal(err)
	}
	ld := exe.Entry
	for in, err := exe.InstAt(ld); in.Op != guest.LD; in, err = exe.InstAt(ld) {
		if err != nil {
			t.Fatal(err)
		}
		ld += guest.InstSize
	}
	loopID := int32(-1)
	for _, r := range sched.Rules {
		if r.ID == rules.LOOP_INIT && loopID < 0 {
			loopID = r.LoopID
		}
	}
	sched.Append(rules.Rule{Addr: ld, ID: rules.TX_START, LoopID: loopID, Data: rules.TxData{CallTarget: ld}})
	sched.Append(rules.Rule{Addr: ld + 3*guest.InstSize, ID: rules.TX_FINISH, LoopID: loopID, Data: rules.TxData{}})

	ex, err := New(exe, sched, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	if native := nativeOf(t, exe); res.Output[0] != native.Output[0] || res.DataHash != native.DataHash {
		t.Fatalf("output %d, native %d (or data differs)", res.Output[0], native.Output[0])
	}
	got := [...]int64{ex.Stats.TxStarted, ex.Stats.TxCommits, ex.Stats.TxAborts, ex.Stats.SpecInsts, ex.Stats.SpecReads, ex.Stats.SpecWrites, res.Cycles, res.Insts}
	want := [...]int64{n, n, 0, 2 * n, n, n, 31752, 3355}
	if got != want {
		t.Fatalf("started, commits, aborts, SpecInsts, reads, writes, cycles, insts = %v, want %v", got, want)
	}
}
