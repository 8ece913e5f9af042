package vm

import (
	"fmt"

	"janus/internal/guest"
	"janus/internal/obj"
)

// Result summarises an execution for correctness comparison and the
// virtual-time performance model.
type Result struct {
	Exit    int64
	Output  []uint64
	Cycles  int64
	Insts   int64
	MemHash uint64
	// DataHash digests memory below the runtime-private/stack regions,
	// comparable across native and parallelised executions.
	DataHash uint64
}

// DataHashLimit excludes stacks, TLS and library text from DataHash.
const DataHashLimit = 0x7000_0000_0000

// DefaultMaxSteps bounds run loops against runaway guest programs.
const DefaultMaxSteps = 2_000_000_000

// RunNative executes the program natively (no binary modification),
// exactly as the paper's "native" baseline runs outside DynamoRIO.
func RunNative(exe *obj.Executable, libs ...*obj.Library) (*Result, error) {
	m, err := NewMachine(exe, libs...)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	c := m.NewContext(0, obj.DefaultStackTop)
	if err := RunContext(m, c, DefaultMaxSteps); err != nil {
		return nil, err
	}
	return &Result{
		Exit:     c.Exit,
		Output:   m.Output,
		Cycles:   c.Cycles,
		Insts:    c.Insts,
		MemHash:  m.Mem.Hash(),
		DataHash: m.Mem.HashBelow(DataHashLimit),
	}, nil
}

// RunContext drives a context until HALT/exit or the step bound.
// Executable code runs through ExecRun over slices of the machine's
// pre-decoded instructions, clipped to the remaining budget so the bound
// trips after exactly maxSteps instructions. [lo, hi) is the stretch of
// decodable slots around the last executable fetch that fell outside it
// (exeOK is scanned only then: once per run for an executable with no
// undecodable slot). Library and misaligned fetches take one FetchInst.
func RunContext(m *Machine, c *Context, maxSteps int64) error {
	var lo, hi uint64
	var one [1]guest.Inst
	for left := maxSteps; left > 0; {
		pc := c.PC
		ins := one[:]
		off := pc - m.Exe.CodeBase
		if idx := off / guest.InstSize; off%guest.InstSize == 0 && idx < uint64(len(m.exeOK)) && m.exeOK[idx] {
			if idx < lo || idx >= hi {
				for lo = idx; lo > 0 && m.exeOK[lo-1]; lo-- {
				}
				for hi = idx + 1; hi < uint64(len(m.exeOK)) && m.exeOK[hi]; hi++ {
				}
			}
			ins = m.exeInsts[idx:min(hi, idx+uint64(left))]
		} else {
			var err error
			if one[0], err = m.FetchInst(pc); err != nil {
				return err
			}
		}
		n, next, err := ExecRun(m, c, ins, pc)
		left -= int64(n)
		if err != nil {
			// Leave PC on the exiting or failing instruction, not on
			// the start of its run.
			c.PC = pc + uint64(n-1)*guest.InstSize
			if err == ErrExited {
				return nil
			}
			return err
		}
		c.PC = next
	}
	return fmt.Errorf("vm: exceeded %d steps without exiting", maxSteps)
}
