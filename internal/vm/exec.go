package vm

import (
	"fmt"
	"math"

	"janus/internal/guest"
)

// ErrExited is returned by run loops when the program has exited.
var ErrExited = fmt.Errorf("vm: program exited")

// f reads a register as a float64.
func (c *Context) f(r guest.Reg) float64 { return math.Float64frombits(c.Reg(r)) }

// setf writes a float64 into a register.
func (c *Context) setf(r guest.Reg, v float64) { c.SetReg(r, math.Float64bits(v)) }

// ExecInst executes the one instruction in as a one-instruction ExecRun
// and returns the address of the next instruction. next is the
// fall-through address (the DBM passes the original application address
// that follows the instruction, which keeps call return addresses and
// branch fall-throughs correct even for code executing from a code cache
// at different host locations).
func ExecInst(m *Machine, c *Context, in *guest.Inst, next uint64) (uint64, error) {
	one := [1]guest.Inst{*in}
	_, next, err := ExecRun(m, c, one[:], next-guest.InstSize)
	return next, err
}

// ExecRun executes ins, the instructions at consecutive application
// addresses from pc on, until the first error, the first taken control
// transfer, or the end of the slice, and returns the number n of
// instructions executed, the stopping one included, and the address
// execution continues at. It is the one dispatch routine: the native
// runner, the DBM's straight-line runs and its sites (a rewritten copy
// through ExecInst) all execute here.
//
// A run charges its cost to the context once: the virtual clock is
// accumulated in a local and flushed into c.Cycles before a SYSCALL
// (SysClock reads it) and when the run ends, and Insts grows by n then.
// The memory bus is resolved once per run: a *MemView, or a *Memory's
// own view, is called directly; any other Bus (a transaction's buffer)
// through the interface.
func ExecRun(m *Machine, c *Context, ins []guest.Inst, pc uint64) (n int, next uint64, err error) {
	bus := c.Bus
	var view *MemView
	switch b := bus.(type) {
	case *MemView:
		view = b
	case *Memory:
		view = &b.view
	}
	var cycles int64
	next = pc
run:
	for n < len(ins) {
		in := &ins[n]
		n++
		cycles += in.Op.Cycles()
		next += guest.InstSize

		switch in.Op {
		case guest.NOP:
		case guest.HALT:
			c.Halted = true
			err = ErrExited
			break run

		case guest.MOV:
			c.SetReg(in.Rd, c.Reg(in.Rs))
		case guest.MOVI:
			c.SetReg(in.Rd, uint64(in.Imm))
		case guest.LD:
			addr := c.EffAddr(in.M)
			if view != nil {
				c.SetReg(in.Rd, view.Read64(addr))
			} else {
				c.SetReg(in.Rd, bus.Read64(addr))
			}
		case guest.ST:
			addr := c.EffAddr(in.M)
			if view != nil {
				view.Write64(addr, c.Reg(in.Rs))
			} else {
				bus.Write64(addr, c.Reg(in.Rs))
			}
		case guest.STI:
			addr := c.EffAddr(in.M)
			if view != nil {
				view.Write64(addr, uint64(in.Imm))
			} else {
				bus.Write64(addr, uint64(in.Imm))
			}
		case guest.LEA:
			c.SetReg(in.Rd, c.EffAddr(in.M))
		case guest.PUSH:
			sp := c.Reg(guest.SP) - 8
			c.SetReg(guest.SP, sp)
			if view != nil {
				view.Write64(sp, c.Reg(in.Rs))
			} else {
				bus.Write64(sp, c.Reg(in.Rs))
			}
		case guest.POP:
			sp := c.Reg(guest.SP)
			if view != nil {
				c.SetReg(in.Rd, view.Read64(sp))
			} else {
				c.SetReg(in.Rd, bus.Read64(sp))
			}
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
				// The instruction's own address: pc is only the start
				// of the run it executes in.
				err = fmt.Errorf("vm: integer divide by zero at %#x", next-guest.InstSize)
				next = 0
				break run
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
			next = uint64(in.Imm)
			break run
		case guest.JMPI:
			next = c.Reg(in.Rd)
			break run
		case guest.JE:
			if c.ZF {
				next = uint64(in.Imm)
				break run
			}
		case guest.JNE:
			if !c.ZF {
				next = uint64(in.Imm)
				break run
			}
		case guest.JL:
			if c.LF {
				next = uint64(in.Imm)
				break run
			}
		case guest.JLE:
			if c.LF || c.ZF {
				next = uint64(in.Imm)
				break run
			}
		case guest.JG:
			if !c.LF && !c.ZF {
				next = uint64(in.Imm)
				break run
			}
		case guest.JGE:
			if !c.LF {
				next = uint64(in.Imm)
				break run
			}

		case guest.CALL, guest.CALLI:
			sp := c.Reg(guest.SP) - 8
			c.SetReg(guest.SP, sp)
			if view != nil {
				view.Write64(sp, next)
			} else {
				bus.Write64(sp, next)
			}
			if in.Op == guest.CALL {
				next = uint64(in.Imm)
			} else {
				next = c.Reg(in.Rd)
			}
			break run
		case guest.RET:
			sp := c.Reg(guest.SP)
			if view != nil {
				next = view.Read64(sp)
			} else {
				next = bus.Read64(sp)
			}
			c.SetReg(guest.SP, sp+8)
			break run

		case guest.SYSCALL:
			c.Cycles += cycles
			cycles = 0
			if err = execSyscall(m, c); err != nil {
				break run
			}

		case guest.VLD:
			addr := c.EffAddr(in.M)
			for i := range guest.VLEN {
				a := addr + uint64(8*i)
				if view != nil {
					c.VReg[in.Rd][i] = math.Float64frombits(view.Read64(a))
				} else {
					c.VReg[in.Rd][i] = math.Float64frombits(bus.Read64(a))
				}
			}
		case guest.VST:
			addr := c.EffAddr(in.M)
			for i := range guest.VLEN {
				a, v := addr+uint64(8*i), math.Float64bits(c.VReg[in.Rs][i])
				if view != nil {
					view.Write64(a, v)
				} else {
					bus.Write64(a, v)
				}
			}
		case guest.VADD:
			for i := range guest.VLEN {
				c.VReg[in.Rd][i] += c.VReg[in.Rs][i]
			}
		case guest.VMUL:
			for i := range guest.VLEN {
				c.VReg[in.Rd][i] *= c.VReg[in.Rs][i]
			}
		case guest.VBCST:
			v := c.f(in.Rs)
			for i := range guest.VLEN {
				c.VReg[in.Rd][i] = v
			}

		default:
			err = fmt.Errorf("vm: unimplemented opcode %s", in.Op)
			next = 0
			break run
		}
	}
	c.Cycles += cycles
	c.Insts += int64(n)
	return n, next, err
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
