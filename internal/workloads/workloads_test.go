package workloads

import (
	"reflect"
	"testing"

	"janus/internal/vm"
)

func TestAllBenchmarksBuildAndRun(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			exe, libs, err := Build(name, Train, O3)
			if err != nil {
				t.Fatal(err)
			}
			if !exe.Stripped {
				t.Error("benchmark binaries must be stripped")
			}
			res, err := vm.RunNative(exe, libs...)
			if err != nil {
				t.Fatal(err)
			}
			if res.Insts == 0 {
				t.Fatal("benchmark executed no instructions")
			}
		})
	}
}

func TestOptLevelsChangeBinary(t *testing.T) {
	o2, _, _ := Build("470.lbm", Train, O2)
	o3, _, _ := Build("470.lbm", Train, O3)
	avx, _, _ := Build("470.lbm", Train, O3AVX)
	if len(o2.Code) == len(o3.Code) && len(o3.Code) == len(avx.Code) {
		t.Fatal("optimisation levels produced identical code sizes")
	}
	// All three must produce equivalent stream results (deterministic
	// float arithmetic, same data).
	r2, err := vm.RunNative(o2)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := vm.RunNative(o3)
	if err != nil {
		t.Fatal(err)
	}
	ravx, err := vm.RunNative(avx)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Exit != 0 || r3.Exit != 0 || ravx.Exit != 0 {
		t.Fatal("non-zero exits")
	}
}

func TestRefLargerThanTrain(t *testing.T) {
	tr, _, _ := Build("462.libquantum", Train, O3)
	ref, _, _ := Build("462.libquantum", Ref, O3)
	rt, err := vm.RunNative(tr)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := vm.RunNative(ref)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Insts <= rt.Insts {
		t.Fatalf("ref (%d insts) should exceed train (%d)", rr.Insts, rt.Insts)
	}
}

// TestRegistryMetadata pins the suite the paper evaluates: SPEC
// CPU2006 minus omnetpp, tonto and wrf (25 unique names), of which the
// nine figure-7 benchmarks are parallelisable.
func TestRegistryMetadata(t *testing.T) {
	names := Names()
	if len(names) != 25 {
		t.Fatalf("expected 25 benchmarks, got %d: %v", len(names), names)
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Fatalf("benchmark %q listed twice", name)
		}
		seen[name] = true
	}
	want := []string{
		"410.bwaves", "433.milc", "436.cactusADM", "437.leslie3d", "459.GemsFDTD",
		"462.libquantum", "464.h264ref", "470.lbm", "482.sphinx3",
	}
	if par := ParallelisableNames(); !reflect.DeepEqual(par, want) {
		t.Fatalf("parallelisable benchmarks %v, want %v", par, want)
	}
	if _, ok := ByName("470.lbm"); !ok {
		t.Fatal("lbm missing")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Fatal("phantom benchmark")
	}
	if _, _, err := Build("nope", Ref, O3); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

func TestMathLibExportsPow(t *testing.T) {
	lib := MathLib()
	if _, ok := lib.SymbolByName("pow"); !ok {
		t.Fatal("libm must export pow")
	}
	if _, ok := lib.SymbolByName("fsq"); !ok {
		t.Fatal("libm must export fsq")
	}
}
