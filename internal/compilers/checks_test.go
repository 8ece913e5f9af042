package compilers

import (
	"reflect"
	"testing"

	"janus"
	"janus/internal/analyzer"
	"janus/internal/asm"
	"janus/internal/genkern"
	"janus/internal/guest"
	"janus/internal/obj"
	"janus/internal/workloads"
)

// countedLoop emits i = 0 .. n-1 in R6 around body, with the arrays a
// and b based in R8 and R9.
func countedLoop(f *asm.FuncBuilder, n int64, body func()) {
	f.MoviData(guest.R8, "a", 0)
	f.MoviData(guest.R9, "b", 0)
	l, d := f.NewLabel(), f.NewLabel()
	f.Movi(guest.R6, 0)
	f.Bind(l)
	f.Cmpi(guest.R6, n)
	f.J(guest.JGE, d)
	body()
	f.OpI(guest.ADDI, guest.R6, 1)
	f.J(guest.JMP, l)
	f.Bind(d)
}

// kernel assembles a main function of the given shape over two
// 512-word arrays a and b; more adds further functions or imports.
func kernel(t *testing.T, shape func(f *asm.FuncBuilder), more func(b *asm.Builder)) *obj.Executable {
	t.Helper()
	b := asm.NewBuilder("check")
	b.Data("a", 8*512)
	b.Data("b", 8*512)
	b.Data("ptrs", 16)
	f := b.Func("main")
	shape(f)
	f.Halt()
	if more != nil {
		more(b)
	}
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

// loopOf assembles main as one counted loop over body.
func loopOf(t *testing.T, body func(f *asm.FuncBuilder), more func(b *asm.Builder)) *obj.Executable {
	t.Helper()
	return kernel(t, func(f *asm.FuncBuilder) { countedLoop(f, 256, func() { body(f) }) }, more)
}

var (
	ai = guest.Mem{Base: guest.R8, Index: guest.R6, Scale: 8}
	bi = guest.Mem{Base: guest.R9, Index: guest.R6, Scale: 8}
	// pi and qi index arrays whose bases were loaded from memory, so
	// only a runtime check can separate them.
	pi = guest.Mem{Base: guest.R10, Index: guest.R6, Scale: 8}
	qi = guest.Mem{Base: guest.R11, Index: guest.R6, Scale: 8}
)

// copyLoop is b[i] = a[i]: static DOALL.
func copyLoop(f *asm.FuncBuilder) {
	f.Ld(guest.R3, ai)
	f.St(bi, guest.R3)
}

// loadPointers sets R10 and R11 to a and b through memory.
func loadPointers(f *asm.FuncBuilder) {
	f.MoviData(guest.R2, "a", 0)
	f.StData("ptrs", 0, guest.R2)
	f.MoviData(guest.R2, "b", 0)
	f.StData("ptrs", 8, guest.R2)
	f.LdData(guest.R10, "ptrs", 0)
	f.LdData(guest.R11, "ptrs", 8)
}

// checkedLoop is q[i] = p[i] through loaded pointers: type C, closed
// by a runtime range check.
func checkedLoop(f *asm.FuncBuilder) {
	loadPointers(f)
	countedLoop(f, 256, func() {
		f.Ld(guest.R3, pi)
		f.St(qi, guest.R3)
	})
}

// pureCallee adds "triple", a callee without stores or calls.
func pureCallee(b *asm.Builder) {
	tr := b.Func("triple")
	tr.Mov(guest.R0, guest.R1)
	tr.OpI(guest.IMULI, guest.R0, 3)
	tr.Ret()
}

// selectWith returns a selection stage running SelectLoops under opts.
func selectWith(opts analyzer.SelectOptions) func(*analyzer.Program) {
	return func(p *analyzer.Program) { p.SelectLoops(opts) }
}

// TestNamedChecks has one kernel per named check, in the checks'
// order: a loop of the kernel fails that check and no check before it,
// so its Rejected names that check.
func TestNamedChecks(t *testing.T) {
	static := selectWith(analyzer.SelectOptions{})
	checked := selectWith(analyzer.SelectOptions{UseChecks: true})
	profiled := selectWith(analyzer.SelectOptions{UseProfile: true, MinCoverage: analyzer.DefaultMinCoverage, UseChecks: true})
	cases := []struct {
		want  analyzer.Check
		exe   func(t *testing.T) *obj.Executable
		train func(p *analyzer.Program) // profile results to apply, if any
		sel   func(p *analyzer.Program)
		// loops lists every loop's verdict by ID, when not just want.
		loops []analyzer.Check
	}{
		{want: analyzer.IndirectFlow, sel: checked, exe: func(t *testing.T) *obj.Executable {
			return loopOf(t, func(f *asm.FuncBuilder) {
				f.I(guest.Inst{Op: guest.CALLI, Rd: guest.R5, M: guest.NoMem})
			}, pureCallee)
		}},
		{want: analyzer.Syscall, sel: checked, exe: func(t *testing.T) *obj.Executable {
			return loopOf(t, func(f *asm.FuncBuilder) {
				f.Movi(guest.R0, guest.SysWrite)
				f.Syscall()
			}, nil)
		}},
		{want: analyzer.ImpureCallee, sel: checked, exe: func(t *testing.T) *obj.Executable {
			return loopOf(t, func(f *asm.FuncBuilder) { f.Call("bump") }, func(b *asm.Builder) {
				g := b.Func("bump")
				g.LdData(guest.R0, "ptrs", 0)
				g.OpI(guest.ADDI, guest.R0, 1)
				g.StData("ptrs", 0, guest.R0)
				g.Ret()
			})
		}},
		{want: analyzer.ImpureCallee, sel: checked, exe: func(t *testing.T) *obj.Executable {
			// A direct call outside the code section has no callee to
			// analyse; the rest of the binary stays analysable.
			return loopOf(t, func(f *asm.FuncBuilder) {
				f.I(guest.Inst{Op: guest.CALL, Rd: guest.RegNone, Rs: guest.RegNone, Imm: 8, M: guest.NoMem})
			}, nil)
		}},
		{want: analyzer.NoIterator, sel: checked, exe: func(t *testing.T) *obj.Executable {
			return kernel(t, func(f *asm.FuncBuilder) {
				f.MoviData(guest.R9, "b", 0)
				l, d := f.NewLabel(), f.NewLabel()
				f.Movi(guest.R6, 1)
				f.Bind(l)
				f.Cmpi(guest.R6, 512)
				f.J(guest.JGE, d)
				f.St(bi, guest.R6)
				f.OpI(guest.SHLI, guest.R6, 1) // geometric: no affine iterator
				f.J(guest.JMP, l)
				f.Bind(d)
			}, nil)
		}},
		{want: analyzer.CarriedRegister, sel: checked, exe: func(t *testing.T) *obj.Executable {
			return loopOf(t, func(f *asm.FuncBuilder) {
				f.St(bi, guest.R3) // b[i] = a[i-1]
				f.Ld(guest.R3, ai)
			}, nil)
		}},
		{want: analyzer.MemoryDependence, sel: checked, exe: func(t *testing.T) *obj.Executable {
			return loopOf(t, func(f *asm.FuncBuilder) {
				f.Ld(guest.R3, ai)
				f.St(guest.Mem{Base: guest.R8, Index: guest.R6, Scale: 8, Disp: 8}, guest.R3) // a[i+1] = a[i]
			}, nil)
		}},
		{want: analyzer.ObservedDependence, sel: checked,
			exe:   func(t *testing.T) *obj.Executable { return kernel(t, checkedLoop, nil) },
			train: func(p *analyzer.Program) { p.ApplyDependences(map[int]bool{0: true}) },
		},
		{want: analyzer.ChecksOff, sel: static,
			exe: func(t *testing.T) *obj.Executable { return kernel(t, checkedLoop, nil) },
		},
		{want: analyzer.Unchecked, sel: checked, exe: func(t *testing.T) *obj.Executable {
			// A second exit leaves the trip count, and so the range
			// check's extent, unknown before the loop.
			return kernel(t, func(f *asm.FuncBuilder) {
				loadPointers(f)
				brk := f.NewLabel()
				countedLoop(f, 256, func() {
					f.Ld(guest.R3, pi)
					f.Cmpi(guest.R3, 0)
					f.J(guest.JL, brk)
					f.St(qi, guest.R3)
				})
				f.Bind(brk)
			}, nil)
		}},
		{want: analyzer.Unanalysable, sel: checked, exe: func(t *testing.T) *obj.Executable {
			return loopOf(t, func(f *asm.FuncBuilder) {
				f.Ld(guest.R3, ai)
				f.OpI(guest.ANDI, guest.R3, 511)
				f.St(guest.Mem{Base: guest.R9, Index: guest.R3, Scale: 8}, guest.R6) // b[a[i]&511] = i
			}, nil)
		}},
		{want: analyzer.UnknownTrip, sel: checked, exe: func(t *testing.T) *obj.Executable {
			return kernel(t, func(f *asm.FuncBuilder) {
				brk := f.NewLabel()
				f.LdData(guest.R5, "ptrs", 0)
				countedLoop(f, 256, func() {
					f.Cmp(guest.R6, guest.R5)
					f.J(guest.JE, brk)
					f.St(bi, guest.R6)
				})
				f.Bind(brk)
			}, nil)
		}},
		{want: analyzer.NoPreheader, sel: checked, exe: func(t *testing.T) *obj.Executable {
			// The header is reached from outside both by falling
			// through and by a branch.
			return kernel(t, func(f *asm.FuncBuilder) {
				f.MoviData(guest.R8, "a", 0)
				f.MoviData(guest.R9, "b", 0)
				l, d := f.NewLabel(), f.NewLabel()
				f.Movi(guest.R6, 0)
				f.LdData(guest.R3, "ptrs", 0)
				f.Cmpi(guest.R3, 0)
				f.J(guest.JE, l)
				f.Nop()
				f.Bind(l)
				f.Cmpi(guest.R6, 256)
				f.J(guest.JGE, d)
				copyLoop(f)
				f.OpI(guest.ADDI, guest.R6, 1)
				f.J(guest.JMP, l)
				f.Bind(d)
			}, nil)
		}},
		{want: analyzer.LowCoverage, sel: profiled,
			exe:   func(t *testing.T) *obj.Executable { return loopOf(t, copyLoop, nil) },
			train: func(p *analyzer.Program) { p.ApplyCoverage(map[int]float64{0: analyzer.DefaultMinCoverage / 2}) },
		},
		{want: analyzer.FewIterations, sel: profiled,
			exe: func(t *testing.T) *obj.Executable { return loopOf(t, copyLoop, nil) },
			train: func(p *analyzer.Program) {
				p.ApplyCoverage(map[int]float64{0: 0.5})
				p.ApplyAvgIters(map[int]float64{0: analyzer.DefaultMinAvgIter - 1})
			},
		},
		{want: analyzer.Nested, sel: checked, loops: []analyzer.Check{"", analyzer.Nested},
			exe: func(t *testing.T) *obj.Executable {
				return loopOf(t, func(f *asm.FuncBuilder) {
					copyLoop(f)
					l, d := f.NewLabel(), f.NewLabel()
					f.Movi(guest.R4, 0)
					f.Bind(l)
					f.Cmpi(guest.R4, 4)
					f.J(guest.JGE, d)
					f.OpI(guest.ADDI, guest.R4, 1)
					f.J(guest.JMP, l)
					f.Bind(d)
				}, nil)
			}},
		{want: analyzer.LibraryCall, sel: ICC.Selection().Select, exe: func(t *testing.T) *obj.Executable {
			return loopOf(t, func(f *asm.FuncBuilder) {
				f.Ld(guest.R1, ai)
				f.Call("fsq")
				f.St(bi, guest.R0)
			}, func(b *asm.Builder) { b.Import("fsq") })
		}},
		{want: analyzer.AnyCall, sel: GCC.Selection().Select, exe: func(t *testing.T) *obj.Executable {
			return loopOf(t, func(f *asm.FuncBuilder) {
				f.Mov(guest.R1, guest.R6)
				f.Call("triple")
				f.St(bi, guest.R0)
			}, pureCallee)
		}},
	}
	for _, c := range cases {
		t.Run(string(c.want), func(t *testing.T) {
			p, err := analyzer.Analyze(c.exe(t))
			if err != nil {
				t.Fatal(err)
			}
			if c.train != nil {
				c.train(p)
			}
			c.sel(p)
			want := c.loops
			if want == nil {
				want = []analyzer.Check{c.want}
			}
			if len(p.Loops) != len(want) {
				t.Fatalf("%d loops, want %d", len(p.Loops), len(want))
			}
			for i, li := range p.Loops {
				if li.Rejected != want[i] || li.Selected != (want[i] == "") {
					t.Errorf("loop %d (%s): Rejected %q, Selected %v; want %q", i, li.Class, li.Rejected, li.Selected, want[i])
				}
			}
		})
	}
}

// verdictCase is one binary to select over: its ref build, the train
// build that profiles it, and the libraries both load.
type verdictCase struct {
	name       string
	ref, train *obj.Executable
	libs       []*obj.Library
}

// TestEveryVerdictNamed asserts that selection leaves every unselected
// loop naming the check it failed and every selected loop naming none,
// under each figure-7 selection and both compiler models, over every
// registry benchmark at O3 and a run of seeded generated kernels. A
// Program selected again under another policy must reach the verdicts
// a fresh analysis reaches.
func TestEveryVerdictNamed(t *testing.T) {
	var cases []verdictCase
	for _, name := range workloads.Names() {
		ref, libs, err := workloads.Build(name, workloads.Ref, workloads.O3)
		if err != nil {
			t.Fatal(err)
		}
		train, _, err := workloads.Build(name, workloads.Train, workloads.O3)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, verdictCase{name, ref, train, libs})
	}
	for seed := uint64(1); seed <= 40; seed++ {
		k, err := genkern.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, verdictCase{k.Name, k.Ref, k.Train, k.Libs})
	}
	var sels []janus.Selection
	for _, profile := range []bool{false, true} {
		for _, checks := range []bool{false, true} {
			sels = append(sels, janus.Config{UseProfile: profile, UseChecks: checks}.Selection())
		}
	}
	sels = append(sels, GCC.Selection(), ICC.Selection())

	for _, c := range cases {
		trainProg, err := analyzer.Analyze(c.train)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := janus.RunProfiling(c.train, trainProg, c.libs...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		analyse := func(train bool) *analyzer.Program {
			p, err := analyzer.Analyze(c.ref)
			if err != nil {
				t.Fatal(err)
			}
			if train {
				p.ApplyCoverage(pr.Coverage)
				p.ApplyAvgIters(pr.AvgIters)
				p.ApplyDependences(pr.Dependences)
			}
			return p
		}
		verdicts := func(p *analyzer.Program) []analyzer.Check {
			v := make([]analyzer.Check, len(p.Loops))
			for i, li := range p.Loops {
				v[i] = li.Rejected
			}
			return v
		}
		fresh := make([][]analyzer.Check, len(sels))
		for i, sel := range sels {
			p := analyse(sel.Train)
			sel.Select(p)
			for _, li := range p.Loops {
				if li.Selected != (li.Rejected == "") {
					t.Errorf("%s, %s: loop %d (%s) selected %v with Rejected %q", c.name, sel.Key, li.ID, li.Class, li.Selected, li.Rejected)
				}
			}
			fresh[i] = verdicts(p)
		}
		// Reselect one Program per training state under every policy
		// of that state, forwards and back, so each policy follows
		// another.
		shared := map[bool]*analyzer.Program{false: analyse(false), true: analyse(true)}
		order := []int{0, 1, 2, 3, 4, 5, 4, 3, 2, 1, 0}
		for _, i := range order {
			p := shared[sels[i].Train]
			sels[i].Select(p)
			if got := verdicts(p); !reflect.DeepEqual(got, fresh[i]) {
				t.Errorf("%s, %s: reselected verdicts %q, fresh %q", c.name, sels[i].Key, got, fresh[i])
			}
		}
	}
}
