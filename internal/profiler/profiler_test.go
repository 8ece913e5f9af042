package profiler

import (
	"testing"
	"testing/quick"
)

func TestCoverageNesting(t *testing.T) {
	c := NewCoverage()
	// Outer loop (id 1) runs 2 iterations, inner (id 2) 3 per outer.
	for o := 0; o < 2; o++ {
		c.EnterIter(1)
		c.Step(5) // outer body work
		for i := 0; i < 3; i++ {
			c.EnterIter(2)
			c.Step(10) // inner body work
		}
		c.Finish(2)
	}
	c.Finish(1)
	if c.Total() != 2*5+2*3*10 {
		t.Fatalf("total %d", c.Total())
	}
	fr := c.Fractions()
	// Outer covers everything; inner covers 60/70.
	if fr[1] < 0.99 {
		t.Errorf("outer fraction %v", fr[1])
	}
	if fr[2] < 0.85 || fr[2] > 0.87 {
		t.Errorf("inner fraction %v", fr[2])
	}
	// Exclusive: outer only its own 10 instructions.
	ex := c.ExclusiveFractions()
	if ex[1] > 0.15 {
		t.Errorf("outer exclusive fraction %v", ex[1])
	}
	if got := ex[1] + ex[2]; got < 0.99 || got > 1.01 {
		t.Errorf("exclusive fractions sum %v", got)
	}
}

func TestCoverageInvocationsAndIterations(t *testing.T) {
	c := NewCoverage()
	for inv := 0; inv < 4; inv++ {
		for it := 0; it < 7; it++ {
			c.EnterIter(3)
			c.Step(1)
		}
		c.Finish(3)
	}
	if c.Invocations(3) != 4 {
		t.Fatalf("invocations %d", c.Invocations(3))
	}
	if c.Iterations(3) != 28 {
		t.Fatalf("iterations %d", c.Iterations(3))
	}
	if c.AvgIterations(3) != 7 {
		t.Fatalf("avg %v", c.AvgIterations(3))
	}
	if c.AvgIters()[3] != 7 {
		t.Fatalf("AvgIters map %v", c.AvgIters())
	}
}

func TestCoverageMultiLevelExit(t *testing.T) {
	// Exiting an outer loop pops abandoned inner loops too.
	c := NewCoverage()
	c.EnterIter(1)
	c.EnterIter(2)
	c.EnterIter(3)
	c.Finish(1) // jumps all the way out
	if c.IsActive(1) || c.IsActive(2) || c.IsActive(3) {
		t.Fatal("multi-level exit left loops active")
	}
}

func TestDependenceDetection(t *testing.T) {
	d := NewDependence()
	d.EnterIter(0, true)
	d.Record(0, 0x1000, 8, true) // write in iter 0
	d.EnterIter(0, false)
	d.Record(0, 0x1000, 8, false) // read same addr in iter 1
	if !d.Observed()[0] {
		t.Fatal("cross-iteration RAW missed")
	}
	if d.Conflicts(0) == 0 {
		t.Fatal("conflict count zero")
	}
}

func TestDependenceSameIterationIsFine(t *testing.T) {
	d := NewDependence()
	d.EnterIter(1, true)
	d.Record(1, 0x2000, 8, true)
	d.Record(1, 0x2000, 8, false) // same iteration: no dependence
	if d.Observed()[1] {
		t.Fatal("same-iteration access misreported")
	}
}

func TestDependenceReadsOnlyNeverConflict(t *testing.T) {
	d := NewDependence()
	d.EnterIter(2, true)
	d.Record(2, 0x3000, 8, false)
	d.EnterIter(2, false)
	d.Record(2, 0x3000, 8, false)
	if d.Observed()[2] {
		t.Fatal("read-read flagged as dependence")
	}
}

func TestDependenceFreshInvocationResets(t *testing.T) {
	d := NewDependence()
	d.EnterIter(3, true)
	d.Record(3, 0x4000, 8, true)
	// New invocation: the old write must not conflict with it.
	d.EnterIter(3, true)
	d.Record(3, 0x4000, 8, false)
	if d.Observed()[3] {
		t.Fatal("state leaked across invocations")
	}
}

func TestDependenceWideAccess(t *testing.T) {
	// A 32-byte vector write overlapping a later 8-byte read.
	d := NewDependence()
	d.EnterIter(4, true)
	d.Record(4, 0x5000, 32, true)
	d.EnterIter(4, false)
	d.Record(4, 0x5018, 8, false) // last word of the vector
	if !d.Observed()[4] {
		t.Fatal("wide-access overlap missed")
	}
}

func TestDependenceDisjointStridesClean(t *testing.T) {
	f := func(seed uint8) bool {
		d := NewDependence()
		// DOALL pattern: iteration i touches word i only.
		first := true
		for i := uint64(0); i < 16; i++ {
			d.EnterIter(9, first)
			first = false
			d.Record(9, 0x8000+8*i, 8, true)
			d.Record(9, 0x8000+8*i, 8, false)
		}
		return !d.Observed()[9]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
