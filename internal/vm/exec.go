package vm

import (
	"fmt"
	"math"

	"janus/internal/guest"
)

// ErrExited is returned by run loops when the program has exited.
var ErrExited = fmt.Errorf("vm: program exited")

// loadN reads a word at addr through the bus, notifying the profiler
// hook. A method rather than a closure so the dispatch loop allocates
// nothing per instruction.
func (c *Context) loadN(addr uint64, width int64) uint64 {
	if c.OnMem != nil {
		c.OnMem(addr, false, width)
	}
	return c.Bus.Read64(addr)
}

// storeN writes a word at addr through the bus, notifying the profiler
// hook.
func (c *Context) storeN(addr uint64, v uint64, width int64) {
	if c.OnMem != nil {
		c.OnMem(addr, true, width)
	}
	c.Bus.Write64(addr, v)
}

// f reads a register as a float64.
func (c *Context) f(r guest.Reg) float64 { return math.Float64frombits(c.Reg(r)) }

// setf writes a float64 into a register.
func (c *Context) setf(r guest.Reg, v float64) { c.SetReg(r, math.Float64bits(v)) }

// ExecInst executes one instruction in context c, charging its cost to
// the virtual clock, and returns the address of the next instruction.
// next is the fall-through address (for the native runner this is
// in-memory PC + InstSize; the DBM passes the original application
// address that follows the instruction, which keeps call return
// addresses and branch fall-throughs correct even for code executing
// from a code cache at different host locations).
func ExecInst(m *Machine, c *Context, in *guest.Inst, next uint64) (uint64, error) {
	c.Cycles += in.Op.Cycles()
	c.Insts++

	switch in.Op {
	case guest.NOP:
	case guest.HALT:
		c.Halted = true
		return next, ErrExited

	case guest.MOV:
		c.SetReg(in.Rd, c.Reg(in.Rs))
	case guest.MOVI:
		c.SetReg(in.Rd, uint64(in.Imm))
	case guest.LD:
		c.SetReg(in.Rd, c.loadN(c.EffAddr(in.M), 8))
	case guest.ST:
		c.storeN(c.EffAddr(in.M), c.Reg(in.Rs), 8)
	case guest.STI:
		c.storeN(c.EffAddr(in.M), uint64(in.Imm), 8)
	case guest.LEA:
		c.SetReg(in.Rd, c.EffAddr(in.M))
	case guest.PUSH:
		sp := c.Reg(guest.SP) - 8
		c.SetReg(guest.SP, sp)
		c.storeN(sp, c.Reg(in.Rs), 8)
	case guest.POP:
		sp := c.Reg(guest.SP)
		c.SetReg(in.Rd, c.loadN(sp, 8))
		c.SetReg(guest.SP, sp+8)

	case guest.ADD:
		c.SetReg(in.Rd, c.Reg(in.Rd)+c.Reg(in.Rs))
	case guest.SUB:
		c.SetReg(in.Rd, c.Reg(in.Rd)-c.Reg(in.Rs))
	case guest.IMUL:
		c.SetReg(in.Rd, uint64(int64(c.Reg(in.Rd))*int64(c.Reg(in.Rs))))
	case guest.IDIV:
		d := int64(c.Reg(in.Rs))
		if d == 0 {
			// The instruction's own address: c.PC is only the start of
			// the block (DBM) or run (native) it executes in.
			return 0, fmt.Errorf("vm: integer divide by zero at %#x", next-guest.InstSize)
		}
		c.SetReg(in.Rd, uint64(int64(c.Reg(in.Rd))/d))
	case guest.AND:
		c.SetReg(in.Rd, c.Reg(in.Rd)&c.Reg(in.Rs))
	case guest.OR:
		c.SetReg(in.Rd, c.Reg(in.Rd)|c.Reg(in.Rs))
	case guest.XOR:
		c.SetReg(in.Rd, c.Reg(in.Rd)^c.Reg(in.Rs))
	case guest.SHL:
		c.SetReg(in.Rd, c.Reg(in.Rd)<<(c.Reg(in.Rs)&63))
	case guest.SHR:
		c.SetReg(in.Rd, c.Reg(in.Rd)>>(c.Reg(in.Rs)&63))

	case guest.ADDI:
		c.SetReg(in.Rd, c.Reg(in.Rd)+uint64(in.Imm))
	case guest.SUBI:
		c.SetReg(in.Rd, c.Reg(in.Rd)-uint64(in.Imm))
	case guest.IMULI:
		c.SetReg(in.Rd, uint64(int64(c.Reg(in.Rd))*in.Imm))
	case guest.ANDI:
		c.SetReg(in.Rd, c.Reg(in.Rd)&uint64(in.Imm))
	case guest.ORI:
		c.SetReg(in.Rd, c.Reg(in.Rd)|uint64(in.Imm))
	case guest.XORI:
		c.SetReg(in.Rd, c.Reg(in.Rd)^uint64(in.Imm))
	case guest.SHLI:
		c.SetReg(in.Rd, c.Reg(in.Rd)<<(uint64(in.Imm)&63))
	case guest.SHRI:
		c.SetReg(in.Rd, c.Reg(in.Rd)>>(uint64(in.Imm)&63))

	case guest.INC:
		c.SetReg(in.Rd, c.Reg(in.Rd)+1)
	case guest.DEC:
		c.SetReg(in.Rd, c.Reg(in.Rd)-1)
	case guest.NEG:
		c.SetReg(in.Rd, uint64(-int64(c.Reg(in.Rd))))

	case guest.FADD:
		c.setf(in.Rd, c.f(in.Rd)+c.f(in.Rs))
	case guest.FSUB:
		c.setf(in.Rd, c.f(in.Rd)-c.f(in.Rs))
	case guest.FMUL:
		c.setf(in.Rd, c.f(in.Rd)*c.f(in.Rs))
	case guest.FDIV:
		c.setf(in.Rd, c.f(in.Rd)/c.f(in.Rs))
	case guest.FSQRT:
		c.setf(in.Rd, math.Sqrt(c.f(in.Rs)))
	case guest.FNEG:
		c.setf(in.Rd, -c.f(in.Rs))
	case guest.CVTIF:
		c.setf(in.Rd, float64(int64(c.Reg(in.Rs))))
	case guest.CVTFI:
		c.SetReg(in.Rd, uint64(int64(c.f(in.Rs))))

	case guest.CMP:
		a, b := int64(c.Reg(in.Rd)), int64(c.Reg(in.Rs))
		c.ZF, c.LF = a == b, a < b
	case guest.CMPI:
		a := int64(c.Reg(in.Rd))
		c.ZF, c.LF = a == in.Imm, a < in.Imm
	case guest.FCMP:
		a, b := c.f(in.Rd), c.f(in.Rs)
		c.ZF, c.LF = a == b, a < b
	case guest.TEST:
		v := c.Reg(in.Rd) & c.Reg(in.Rs)
		c.ZF, c.LF = v == 0, int64(v) < 0
	case guest.CMOVE:
		if c.ZF {
			c.SetReg(in.Rd, c.Reg(in.Rs))
		}
	case guest.CMOVNE:
		if !c.ZF {
			c.SetReg(in.Rd, c.Reg(in.Rs))
		}

	case guest.JMP:
		return uint64(in.Imm), nil
	case guest.JMPI:
		return c.Reg(in.Rd), nil
	case guest.JE:
		if c.ZF {
			return uint64(in.Imm), nil
		}
	case guest.JNE:
		if !c.ZF {
			return uint64(in.Imm), nil
		}
	case guest.JL:
		if c.LF {
			return uint64(in.Imm), nil
		}
	case guest.JLE:
		if c.LF || c.ZF {
			return uint64(in.Imm), nil
		}
	case guest.JG:
		if !c.LF && !c.ZF {
			return uint64(in.Imm), nil
		}
	case guest.JGE:
		if !c.LF {
			return uint64(in.Imm), nil
		}

	case guest.CALL:
		sp := c.Reg(guest.SP) - 8
		c.SetReg(guest.SP, sp)
		c.storeN(sp, next, 8)
		return uint64(in.Imm), nil
	case guest.CALLI:
		sp := c.Reg(guest.SP) - 8
		c.SetReg(guest.SP, sp)
		c.storeN(sp, next, 8)
		return c.Reg(in.Rd), nil
	case guest.RET:
		sp := c.Reg(guest.SP)
		ra := c.loadN(sp, 8)
		c.SetReg(guest.SP, sp+8)
		return ra, nil

	case guest.SYSCALL:
		return next, execSyscall(m, c)

	case guest.VLD:
		addr := c.EffAddr(in.M)
		if c.OnMem != nil {
			c.OnMem(addr, false, 8*guest.VLEN)
		}
		for i := 0; i < guest.VLEN; i++ {
			c.VReg[in.Rd][i] = math.Float64frombits(c.Bus.Read64(addr + uint64(8*i)))
		}
	case guest.VST:
		addr := c.EffAddr(in.M)
		if c.OnMem != nil {
			c.OnMem(addr, true, 8*guest.VLEN)
		}
		for i := 0; i < guest.VLEN; i++ {
			c.Bus.Write64(addr+uint64(8*i), math.Float64bits(c.VReg[in.Rs][i]))
		}
	case guest.VADD:
		for i := 0; i < guest.VLEN; i++ {
			c.VReg[in.Rd][i] += c.VReg[in.Rs][i]
		}
	case guest.VMUL:
		for i := 0; i < guest.VLEN; i++ {
			c.VReg[in.Rd][i] *= c.VReg[in.Rs][i]
		}
	case guest.VBCST:
		v := c.f(in.Rs)
		for i := 0; i < guest.VLEN; i++ {
			c.VReg[in.Rd][i] = v
		}

	default:
		return 0, fmt.Errorf("vm: unimplemented opcode %s", in.Op)
	}
	return next, nil
}

// ExecRun executes ins, the instructions at consecutive application
// addresses from pc on, through ExecInst until the first error, the
// first control transfer, or the end of the slice. n counts every
// instruction executed, a failing or transferring one included; next is
// the address execution continues at. It is the one dispatch loop under
// both the native runner and the DBM's straight-line runs.
func ExecRun(m *Machine, c *Context, ins []guest.Inst, pc uint64) (n int, next uint64, err error) {
	for i := range ins {
		pc += guest.InstSize
		next, err = ExecInst(m, c, &ins[i], pc)
		if err != nil || next != pc {
			return i + 1, next, err
		}
	}
	return len(ins), pc, nil
}

func execSyscall(m *Machine, c *Context) error {
	switch nr := int64(c.Reg(guest.R0)); nr {
	case guest.SysExit:
		c.Halted = true
		c.Exit = int64(c.Reg(guest.R1))
		return ErrExited
	case guest.SysWrite, guest.SysWriteF:
		m.Output = append(m.Output, c.Reg(guest.R1))
	case guest.SysAlloc:
		c.SetReg(guest.R0, m.Alloc(c.Reg(guest.R1)))
	case guest.SysClock:
		c.SetReg(guest.R0, uint64(c.Cycles))
	default:
		return fmt.Errorf("vm: unknown syscall %d", nr)
	}
	return nil
}
