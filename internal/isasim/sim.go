// Package isasim is the architectural (ISA-level) golden model. The stimulus
// generator executes candidate programs on it to derive trigger operands
// (branch outcomes, memory addresses, return targets), and the test suite
// uses it to co-verify the out-of-order core's committed state.
package isasim

import (
	"fmt"
	"math"
	"math/bits"

	"dejavuzz/internal/isa"
	"dejavuzz/internal/mem"
)

// Cause enumerates trap causes, mirroring the RISC-V mcause encoding for the
// subset the fuzzer exercises.
type Cause int

const (
	CauseNone Cause = iota
	CauseIllegalInstruction
	CauseLoadAccessFault
	CauseStoreAccessFault
	CauseLoadPageFault
	CauseStorePageFault
	CauseLoadMisalign
	CauseStoreMisalign
	CauseFetchAccessFault
	CauseFetchPageFault
	CauseEnvCall
	CauseBreakpoint
)

func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseIllegalInstruction:
		return "illegal-instruction"
	case CauseLoadAccessFault:
		return "load-access-fault"
	case CauseStoreAccessFault:
		return "store-access-fault"
	case CauseLoadPageFault:
		return "load-page-fault"
	case CauseStorePageFault:
		return "store-page-fault"
	case CauseLoadMisalign:
		return "load-misalign"
	case CauseStoreMisalign:
		return "store-misalign"
	case CauseFetchAccessFault:
		return "fetch-access-fault"
	case CauseFetchPageFault:
		return "fetch-page-fault"
	case CauseEnvCall:
		return "ecall"
	case CauseBreakpoint:
		return "ebreak"
	}
	return fmt.Sprintf("cause(%d)", int(c))
}

// Trap describes an architectural trap.
type Trap struct {
	Cause Cause
	EPC   uint64 // pc of the trapping instruction
	Tval  uint64 // faulting address or raw instruction
}

func (t Trap) String() string {
	return fmt.Sprintf("%v at %#x (tval %#x)", t.Cause, t.EPC, t.Tval)
}

// TrapAction tells the simulator how to continue after a trap.
type TrapAction struct {
	NewPC uint64
	Halt  bool
}

// Sim is the architectural simulator state.
type Sim struct {
	Mem *mem.Space
	PC  uint64
	X   [32]uint64 // integer registers
	F   [32]uint64 // fp registers (raw IEEE-754 bits)

	Halted bool
	// TrapHook decides what to do on a trap. Nil means halt on any trap.
	TrapHook func(Trap) TrapAction
	// Instret counts retired instructions.
	Instret uint64
	// LastTrap records the most recent trap, if any.
	LastTrap *Trap

	// dec memoises instruction decoding. It survives Reset: a memo can
	// never change results, only skip recomputation.
	dec isa.DecodeMemo
}

// New returns a simulator over the given space starting at entry.
func New(space *mem.Space, entry uint64) *Sim {
	s := &Sim{}
	s.Reset(space, entry)
	return s
}

// Reset reinitialises the simulator in place over a (possibly reset) space:
// registers zeroed, counters cleared, hook detached. After Reset the
// simulator is indistinguishable from New(space, entry) — the property the
// per-shard execution contexts in internal/isadiff rely on.
func (s *Sim) Reset(space *mem.Space, entry uint64) {
	s.Mem = space
	s.PC = entry
	s.X = [32]uint64{}
	s.F = [32]uint64{}
	s.Halted = false
	s.TrapHook = nil
	s.Instret = 0
	s.LastTrap = nil
}

// CauseForFault converts a memory fault into a trap cause.
func CauseForFault(f *mem.Fault) Cause {
	switch f.Kind {
	case mem.AccessLoad:
		if f.Page {
			return CauseLoadPageFault
		}
		return CauseLoadAccessFault
	case mem.AccessStore:
		if f.Page {
			return CauseStorePageFault
		}
		return CauseStoreAccessFault
	default:
		if f.Page {
			return CauseFetchPageFault
		}
		return CauseFetchAccessFault
	}
}

func (s *Sim) trap(t Trap) {
	tt := t
	s.LastTrap = &tt
	if s.TrapHook == nil {
		s.Halted = true
		return
	}
	act := s.TrapHook(t)
	if act.Halt {
		s.Halted = true
		return
	}
	s.PC = act.NewPC
}

// Step executes one instruction. It returns false once halted.
func (s *Sim) Step() bool {
	if s.Halted {
		return false
	}
	if err := s.Mem.Check(s.PC, 4, mem.AccessFetch); err != nil {
		f := err.(*mem.Fault)
		s.trap(Trap{Cause: CauseForFault(f), EPC: s.PC, Tval: s.PC})
		return !s.Halted
	}
	s.Exec(*s.dec.Decode(s.Mem.Read32(s.PC)))
	return !s.Halted
}

// Run executes until halt or the instruction budget is exhausted.
// It returns the number of instructions retired.
func (s *Sim) Run(max int) int {
	n := 0
	for n < max && s.Step() {
		n++
	}
	return n
}

// MemAddr computes the effective address of a load/store without executing it.
func (s *Sim) MemAddr(in isa.Inst) uint64 {
	return s.X[in.Rs1] + uint64(in.Imm)
}

// Exec executes a single decoded instruction at the current PC, updating
// PC, registers, memory and trap state. Memory and system operations are
// executed here; every other operation is Compute over the register files.
func (s *Sim) Exec(in isa.Inst) {
	pc := s.PC
	next := pc + 4
	x := &s.X
	wr := func(rd int, v uint64) {
		if rd != 0 {
			x[rd] = v
		}
	}
	switch in.Op.Class() {
	case isa.ClassInvalid:
		s.trap(Trap{Cause: CauseIllegalInstruction, EPC: pc, Tval: uint64(in.Raw)})
		return
	case isa.ClassLoad:
		addr := s.MemAddr(in)
		size := in.Op.MemSize()
		if addr%uint64(size) != 0 {
			s.trap(Trap{Cause: CauseLoadMisalign, EPC: pc, Tval: addr})
			return
		}
		v, _, err := s.Mem.Read(addr, size, mem.AccessLoad)
		if err != nil {
			f := err.(*mem.Fault)
			s.trap(Trap{Cause: CauseForFault(f), EPC: pc, Tval: addr})
			return
		}
		v = Extend(in.Op, v)
		if in.Op == isa.OpFld {
			s.F[in.Rd] = v
		} else {
			wr(in.Rd, v)
		}
	case isa.ClassStore:
		addr := s.MemAddr(in)
		size := in.Op.MemSize()
		if addr%uint64(size) != 0 {
			s.trap(Trap{Cause: CauseStoreMisalign, EPC: pc, Tval: addr})
			return
		}
		v := x[in.Rs2]
		if in.Op == isa.OpFsd {
			v = s.F[in.Rs2]
		}
		if err := s.Mem.Write(addr, size, v, 0, mem.AccessStore); err != nil {
			f := err.(*mem.Fault)
			s.trap(Trap{Cause: CauseForFault(f), EPC: pc, Tval: addr})
			return
		}
	case isa.ClassSystem:
		switch in.Op {
		case isa.OpEcall:
			s.trap(Trap{Cause: CauseEnvCall, EPC: pc})
			return
		case isa.OpEbreak:
			s.trap(Trap{Cause: CauseBreakpoint, EPC: pc})
			return
		case isa.OpCsrrw, isa.OpCsrrs, isa.OpCsrrc:
			// CSR file not modelled architecturally; reads return zero.
			wr(in.Rd, 0)
		}
		// fence is a no-op, and so is mret: the testbench-level runtime owns
		// trap state.
	case isa.ClassFPU, isa.ClassFDiv:
		// The only operations that compute on floating-point registers.
		a, b := x[in.Rs1], x[in.Rs2]
		fp1, fp2 := in.FPSources()
		if fp1 {
			a = s.F[in.Rs1]
		}
		if fp2 {
			b = s.F[in.Rs2]
		}
		v, _ := Compute(in, pc, a, b)
		if in.FPDest() {
			s.F[in.Rd] = v
		} else {
			wr(in.Rd, v)
		}
	case isa.ClassBranch:
		_, next = Compute(in, pc, x[in.Rs1], x[in.Rs2])
	default:
		var v uint64
		v, next = Compute(in, pc, x[in.Rs1], x[in.Rs2])
		wr(in.Rd, v)
	}
	s.Instret++
	s.PC = next
}

// Extend is the semantics of a load's result: given the load's operation
// and the bytes it read, zero-extended, it returns the destination value,
// sign-extending them for lb, lh and lw. Exec and the out-of-order core's
// load unit both call it.
func Extend(op isa.Op, v uint64) uint64 {
	switch op {
	case isa.OpLb:
		return uint64(int64(int8(v)))
	case isa.OpLh:
		return uint64(int64(int16(v)))
	case isa.OpLw:
		return uint64(int64(int32(v)))
	}
	return v
}

// Compute is the semantics of every operation that neither accesses memory
// nor is a system operation: given the instruction, its pc and its source
// values (a from rs1 and b from rs2, each read from the register file the
// operation names; a source it does not read is ignored), it returns the
// destination value and the next pc. Branches have no destination and
// return 0. Exec and the out-of-order core's execution units both call it.
func Compute(in isa.Inst, pc, a, b uint64) (val, next uint64) {
	next = pc + 4
	switch in.Op {
	case isa.OpLui:
		val = uint64(in.Imm)
	case isa.OpAuipc:
		val = pc + uint64(in.Imm)
	case isa.OpJal:
		val, next = next, pc+uint64(in.Imm)
	case isa.OpJalr:
		val, next = next, (a+uint64(in.Imm))&^1
	case isa.OpBeq:
		if a == b {
			next = pc + uint64(in.Imm)
		}
	case isa.OpBne:
		if a != b {
			next = pc + uint64(in.Imm)
		}
	case isa.OpBlt:
		if int64(a) < int64(b) {
			next = pc + uint64(in.Imm)
		}
	case isa.OpBge:
		if int64(a) >= int64(b) {
			next = pc + uint64(in.Imm)
		}
	case isa.OpBltu:
		if a < b {
			next = pc + uint64(in.Imm)
		}
	case isa.OpBgeu:
		if a >= b {
			next = pc + uint64(in.Imm)
		}
	case isa.OpAddi:
		val = a + uint64(in.Imm)
	case isa.OpSlti:
		val = b2u(int64(a) < in.Imm)
	case isa.OpSltiu:
		val = b2u(a < uint64(in.Imm))
	case isa.OpXori:
		val = a ^ uint64(in.Imm)
	case isa.OpOri:
		val = a | uint64(in.Imm)
	case isa.OpAndi:
		val = a & uint64(in.Imm)
	case isa.OpSlli:
		val = a << uint(in.Imm&63)
	case isa.OpSrli:
		val = a >> uint(in.Imm&63)
	case isa.OpSrai:
		val = uint64(int64(a) >> uint(in.Imm&63))
	case isa.OpAddiw:
		val = sext32(uint32(a) + uint32(in.Imm))
	case isa.OpSlliw:
		val = sext32(uint32(a) << uint(in.Imm&31))
	case isa.OpSrliw:
		val = sext32(uint32(a) >> uint(in.Imm&31))
	case isa.OpSraiw:
		val = uint64(int64(int32(a) >> uint(in.Imm&31)))
	case isa.OpAdd:
		val = a + b
	case isa.OpSub:
		val = a - b
	case isa.OpSll:
		val = a << (b & 63)
	case isa.OpSlt:
		val = b2u(int64(a) < int64(b))
	case isa.OpSltu:
		val = b2u(a < b)
	case isa.OpXor:
		val = a ^ b
	case isa.OpSrl:
		val = a >> (b & 63)
	case isa.OpSra:
		val = uint64(int64(a) >> (b & 63))
	case isa.OpOr:
		val = a | b
	case isa.OpAnd:
		val = a & b
	case isa.OpAddw:
		val = sext32(uint32(a) + uint32(b))
	case isa.OpSubw:
		val = sext32(uint32(a) - uint32(b))
	case isa.OpSllw:
		val = sext32(uint32(a) << (b & 31))
	case isa.OpSrlw:
		val = sext32(uint32(a) >> (b & 31))
	case isa.OpSraw:
		val = uint64(int64(int32(a) >> (b & 31)))
	case isa.OpMul:
		val = a * b
	case isa.OpMulh:
		val = mulh(int64(a), int64(b))
	case isa.OpMulhsu:
		val = mulhsu(int64(a), b)
	case isa.OpMulhu:
		val, _ = bits.Mul64(a, b)
	case isa.OpDiv:
		val = divS(int64(a), int64(b))
	case isa.OpDivu:
		val = divU(a, b)
	case isa.OpRem:
		val = remS(int64(a), int64(b))
	case isa.OpRemu:
		val = remU(a, b)
	case isa.OpMulw:
		val = sext32(uint32(a) * uint32(b))
	case isa.OpDivw:
		val = sext32(uint32(divS(int64(int32(a)), int64(int32(b)))))
	case isa.OpDivuw:
		val = sext32(uint32(divU(uint64(uint32(a)), uint64(uint32(b)))))
	case isa.OpRemw:
		val = sext32(uint32(remS(int64(int32(a)), int64(int32(b)))))
	case isa.OpRemuw:
		val = sext32(uint32(remU(uint64(uint32(a)), uint64(uint32(b)))))
	case isa.OpFaddD:
		val = f64op(a, b, '+')
	case isa.OpFsubD:
		val = f64op(a, b, '-')
	case isa.OpFmulD:
		val = f64op(a, b, '*')
	case isa.OpFdivD:
		val = f64op(a, b, '/')
	case isa.OpFmvXD, isa.OpFmvDX:
		val = a
	}
	return val, next
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func sext32(v uint32) uint64 { return uint64(int64(int32(v))) }

func absU(v uint64) uint64 {
	if int64(v) < 0 {
		return uint64(-int64(v))
	}
	return v
}

func mulh(a, b int64) uint64 {
	neg := (a < 0) != (b < 0)
	hi, lo := bits.Mul64(absU(uint64(a)), absU(uint64(b)))
	if neg {
		// negate 128-bit (hi,lo)
		lo = ^lo + 1
		hi = ^hi
		if lo == 0 {
			hi++
		}
	}
	return hi
}

func mulhsu(a int64, b uint64) uint64 {
	neg := a < 0
	hi, lo := bits.Mul64(absU(uint64(a)), b)
	if neg {
		lo = ^lo + 1
		hi = ^hi
		if lo == 0 {
			hi++
		}
	}
	return hi
}

func divS(a, b int64) uint64 {
	if b == 0 {
		return ^uint64(0)
	}
	if a == math.MinInt64 && b == -1 {
		return uint64(a)
	}
	return uint64(a / b)
}

func divU(a, b uint64) uint64 {
	if b == 0 {
		return ^uint64(0)
	}
	return a / b
}

func remS(a, b int64) uint64 {
	if b == 0 {
		return uint64(a)
	}
	if a == math.MinInt64 && b == -1 {
		return 0
	}
	return uint64(a % b)
}

func remU(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	return a % b
}

func f64op(a, b uint64, op byte) uint64 {
	fa := math.Float64frombits(a)
	fb := math.Float64frombits(b)
	var r float64
	switch op {
	case '+':
		r = fa + fb
	case '-':
		r = fa - fb
	case '*':
		r = fa * fb
	case '/':
		r = fa / fb
	}
	return math.Float64bits(r)
}
