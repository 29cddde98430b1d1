// Package isa implements the RV64 instruction subset used by the DejaVuzz
// stimulus generator: RV64I, the M extension, a double-precision floating
// point subset (enough to exercise FPU port contention), and the system
// instructions the swap runtime relies on.
//
// The package provides binary encoding and decoding, a typed instruction IR
// (Item fragments) with a two-pass assembler back end that resolves labels
// and expands the standard pseudo-instructions, a text front end (Asm,
// Parse) that lowers assembly source to the same items, and a disassembler
// used by trace logs and bug reports.
package isa

import "fmt"

// Op enumerates the decoded operations.
type Op int

const (
	OpInvalid Op = iota

	// RV64I register-register.
	OpAdd
	OpSub
	OpSll
	OpSlt
	OpSltu
	OpXor
	OpSrl
	OpSra
	OpOr
	OpAnd
	OpAddw
	OpSubw
	OpSllw
	OpSrlw
	OpSraw

	// RV64I register-immediate.
	OpAddi
	OpSlti
	OpSltiu
	OpXori
	OpOri
	OpAndi
	OpSlli
	OpSrli
	OpSrai
	OpAddiw
	OpSlliw
	OpSrliw
	OpSraiw

	// Upper immediates.
	OpLui
	OpAuipc

	// Control transfer.
	OpJal
	OpJalr
	OpBeq
	OpBne
	OpBlt
	OpBge
	OpBltu
	OpBgeu

	// Loads/stores.
	OpLb
	OpLh
	OpLw
	OpLd
	OpLbu
	OpLhu
	OpLwu
	OpSb
	OpSh
	OpSw
	OpSd

	// M extension.
	OpMul
	OpMulh
	OpMulhsu
	OpMulhu
	OpDiv
	OpDivu
	OpRem
	OpRemu
	OpMulw
	OpDivw
	OpDivuw
	OpRemw
	OpRemuw

	// D extension subset.
	OpFld
	OpFsd
	OpFaddD
	OpFsubD
	OpFmulD
	OpFdivD
	OpFmvXD
	OpFmvDX

	// System.
	OpFence
	OpEcall
	OpEbreak
	OpMret
	OpCsrrw
	OpCsrrs
	OpCsrrc

	opCount
)

var opNames = map[Op]string{
	OpInvalid: "invalid",
	OpAdd:     "add", OpSub: "sub", OpSll: "sll", OpSlt: "slt", OpSltu: "sltu",
	OpXor: "xor", OpSrl: "srl", OpSra: "sra", OpOr: "or", OpAnd: "and",
	OpAddw: "addw", OpSubw: "subw", OpSllw: "sllw", OpSrlw: "srlw", OpSraw: "sraw",
	OpAddi: "addi", OpSlti: "slti", OpSltiu: "sltiu", OpXori: "xori", OpOri: "ori",
	OpAndi: "andi", OpSlli: "slli", OpSrli: "srli", OpSrai: "srai",
	OpAddiw: "addiw", OpSlliw: "slliw", OpSrliw: "srliw", OpSraiw: "sraiw",
	OpLui: "lui", OpAuipc: "auipc",
	OpJal: "jal", OpJalr: "jalr",
	OpBeq: "beq", OpBne: "bne", OpBlt: "blt", OpBge: "bge", OpBltu: "bltu", OpBgeu: "bgeu",
	OpLb: "lb", OpLh: "lh", OpLw: "lw", OpLd: "ld", OpLbu: "lbu", OpLhu: "lhu", OpLwu: "lwu",
	OpSb: "sb", OpSh: "sh", OpSw: "sw", OpSd: "sd",
	OpMul: "mul", OpMulh: "mulh", OpMulhsu: "mulhsu", OpMulhu: "mulhu",
	OpDiv: "div", OpDivu: "divu", OpRem: "rem", OpRemu: "remu",
	OpMulw: "mulw", OpDivw: "divw", OpDivuw: "divuw", OpRemw: "remw", OpRemuw: "remuw",
	OpFld: "fld", OpFsd: "fsd",
	OpFaddD: "fadd.d", OpFsubD: "fsub.d", OpFmulD: "fmul.d", OpFdivD: "fdiv.d",
	OpFmvXD: "fmv.x.d", OpFmvDX: "fmv.d.x",
	OpFence: "fence", OpEcall: "ecall", OpEbreak: "ebreak", OpMret: "mret",
	OpCsrrw: "csrrw", OpCsrrs: "csrrs", OpCsrrc: "csrrc",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Class groups operations by the pipeline resources they use.
type Class int

const (
	ClassALU Class = iota
	ClassMul
	ClassDiv
	ClassLoad
	ClassStore
	ClassBranch
	ClassJump    // jal
	ClassJumpReg // jalr (indirect jump / call / ret)
	ClassFPU
	ClassFDiv
	ClassSystem
	ClassInvalid
)

// Class returns the resource class of the operation.
func (o Op) Class() Class {
	switch o {
	case OpInvalid:
		return ClassInvalid
	case OpLb, OpLh, OpLw, OpLd, OpLbu, OpLhu, OpLwu, OpFld:
		return ClassLoad
	case OpSb, OpSh, OpSw, OpSd, OpFsd:
		return ClassStore
	case OpBeq, OpBne, OpBlt, OpBge, OpBltu, OpBgeu:
		return ClassBranch
	case OpJal:
		return ClassJump
	case OpJalr:
		return ClassJumpReg
	case OpMul, OpMulh, OpMulhsu, OpMulhu, OpMulw:
		return ClassMul
	case OpDiv, OpDivu, OpRem, OpRemu, OpDivw, OpDivuw, OpRemw, OpRemuw:
		return ClassDiv
	case OpFaddD, OpFsubD, OpFmulD, OpFmvXD, OpFmvDX:
		return ClassFPU
	case OpFdivD:
		return ClassFDiv
	case OpFence, OpEcall, OpEbreak, OpMret, OpCsrrw, OpCsrrs, OpCsrrc:
		return ClassSystem
	default:
		return ClassALU
	}
}

// MemSize returns the access size in bytes for loads/stores, else 0.
func (o Op) MemSize() int {
	switch o {
	case OpLb, OpLbu, OpSb:
		return 1
	case OpLh, OpLhu, OpSh:
		return 2
	case OpLw, OpLwu, OpSw:
		return 4
	case OpLd, OpSd, OpFld, OpFsd:
		return 8
	}
	return 0
}

// Inst is a decoded instruction.
type Inst struct {
	Op  Op
	Rd  int
	Rs1 int
	Rs2 int
	Imm int64 // sign-extended immediate (CSR number for csr ops)
	Raw uint32
}

// String renders a compact disassembly (see disasm.go for details).
func (i Inst) String() string { return Disasm(i) }

// FPDest reports whether the destination register is a floating-point reg.
func (i Inst) FPDest() bool {
	switch i.Op {
	case OpFld, OpFaddD, OpFsubD, OpFmulD, OpFdivD, OpFmvDX:
		return true
	}
	return false
}

// FPSources reports whether rs1/rs2 name floating-point registers.
func (i Inst) FPSources() (fp1, fp2 bool) {
	switch i.Op {
	case OpFaddD, OpFsubD, OpFmulD, OpFdivD:
		return true, true
	case OpFmvXD:
		return true, false
	case OpFsd:
		return false, true // rs2 holds the FP store data
	}
	return false, false
}

// --- Encoding -----------------------------------------------------------

func encR(opc, f3, f7 uint32, rd, rs1, rs2 int) uint32 {
	return opc | uint32(rd)<<7 | f3<<12 | uint32(rs1)<<15 | uint32(rs2)<<20 | f7<<25
}

func encI(opc, f3 uint32, rd, rs1 int, imm int64) uint32 {
	return opc | uint32(rd)<<7 | f3<<12 | uint32(rs1)<<15 | (uint32(imm)&0xfff)<<20
}

func encS(opc, f3 uint32, rs1, rs2 int, imm int64) uint32 {
	u := uint32(imm)
	return opc | (u&0x1f)<<7 | f3<<12 | uint32(rs1)<<15 | uint32(rs2)<<20 | (u>>5&0x7f)<<25
}

func encB(opc, f3 uint32, rs1, rs2 int, imm int64) uint32 {
	u := uint32(imm)
	return opc | (u>>11&1)<<7 | (u>>1&0xf)<<8 | f3<<12 |
		uint32(rs1)<<15 | uint32(rs2)<<20 | (u>>5&0x3f)<<25 | (u>>12&1)<<31
}

func encU(opc uint32, rd int, imm int64) uint32 {
	return opc | uint32(rd)<<7 | uint32(imm)&0xfffff000
}

func encJ(opc uint32, rd int, imm int64) uint32 {
	u := uint32(imm)
	return opc | uint32(rd)<<7 | (u>>12&0xff)<<12 | (u>>11&1)<<20 | (u>>1&0x3ff)<<21 | (u>>20&1)<<31
}

const (
	opcLoad   = 0x03
	opcLoadFP = 0x07
	opcImm    = 0x13
	opcAuipc  = 0x17
	opcImm32  = 0x1b
	opcStore  = 0x23
	opcStFP   = 0x27
	opcReg    = 0x33
	opcLui    = 0x37
	opcReg32  = 0x3b
	opcFP     = 0x53
	opcBranch = 0x63
	opcJalr   = 0x67
	opcJal    = 0x6f
	opcSystem = 0x73
	opcFence  = 0x0f
)

type encSpec struct {
	fmt byte // R I S B U J, or special: C(csr), X(fixed word)
	opc uint32
	f3  uint32
	f7  uint32
}

// encTable is indexed by Op (an array, not a map: Encode runs for every
// PC-relative and li word a packet build emits); a zero fmt marks ops with
// no table encoding.
var encTable = [opCount]encSpec{
	OpAdd: {'R', opcReg, 0, 0x00}, OpSub: {'R', opcReg, 0, 0x20},
	OpSll: {'R', opcReg, 1, 0x00}, OpSlt: {'R', opcReg, 2, 0x00},
	OpSltu: {'R', opcReg, 3, 0x00}, OpXor: {'R', opcReg, 4, 0x00},
	OpSrl: {'R', opcReg, 5, 0x00}, OpSra: {'R', opcReg, 5, 0x20},
	OpOr: {'R', opcReg, 6, 0x00}, OpAnd: {'R', opcReg, 7, 0x00},
	OpAddw: {'R', opcReg32, 0, 0x00}, OpSubw: {'R', opcReg32, 0, 0x20},
	OpSllw: {'R', opcReg32, 1, 0x00}, OpSrlw: {'R', opcReg32, 5, 0x00},
	OpSraw: {'R', opcReg32, 5, 0x20},

	OpMul: {'R', opcReg, 0, 0x01}, OpMulh: {'R', opcReg, 1, 0x01},
	OpMulhsu: {'R', opcReg, 2, 0x01}, OpMulhu: {'R', opcReg, 3, 0x01},
	OpDiv: {'R', opcReg, 4, 0x01}, OpDivu: {'R', opcReg, 5, 0x01},
	OpRem: {'R', opcReg, 6, 0x01}, OpRemu: {'R', opcReg, 7, 0x01},
	OpMulw: {'R', opcReg32, 0, 0x01}, OpDivw: {'R', opcReg32, 4, 0x01},
	OpDivuw: {'R', opcReg32, 5, 0x01}, OpRemw: {'R', opcReg32, 6, 0x01},
	OpRemuw: {'R', opcReg32, 7, 0x01},

	OpAddi: {'I', opcImm, 0, 0}, OpSlti: {'I', opcImm, 2, 0},
	OpSltiu: {'I', opcImm, 3, 0}, OpXori: {'I', opcImm, 4, 0},
	OpOri: {'I', opcImm, 6, 0}, OpAndi: {'I', opcImm, 7, 0},
	OpSlli: {'I', opcImm, 1, 0x00}, OpSrli: {'I', opcImm, 5, 0x00},
	OpSrai:  {'I', opcImm, 5, 0x10},
	OpAddiw: {'I', opcImm32, 0, 0}, OpSlliw: {'I', opcImm32, 1, 0x00},
	OpSrliw: {'I', opcImm32, 5, 0x00}, OpSraiw: {'I', opcImm32, 5, 0x20},

	OpLui: {'U', opcLui, 0, 0}, OpAuipc: {'U', opcAuipc, 0, 0},
	OpJal: {'J', opcJal, 0, 0}, OpJalr: {'I', opcJalr, 0, 0},

	OpBeq: {'B', opcBranch, 0, 0}, OpBne: {'B', opcBranch, 1, 0},
	OpBlt: {'B', opcBranch, 4, 0}, OpBge: {'B', opcBranch, 5, 0},
	OpBltu: {'B', opcBranch, 6, 0}, OpBgeu: {'B', opcBranch, 7, 0},

	OpLb: {'I', opcLoad, 0, 0}, OpLh: {'I', opcLoad, 1, 0},
	OpLw: {'I', opcLoad, 2, 0}, OpLd: {'I', opcLoad, 3, 0},
	OpLbu: {'I', opcLoad, 4, 0}, OpLhu: {'I', opcLoad, 5, 0},
	OpLwu: {'I', opcLoad, 6, 0},
	OpSb:  {'S', opcStore, 0, 0}, OpSh: {'S', opcStore, 1, 0},
	OpSw: {'S', opcStore, 2, 0}, OpSd: {'S', opcStore, 3, 0},

	OpFld: {'I', opcLoadFP, 3, 0}, OpFsd: {'S', opcStFP, 3, 0},
	OpFaddD: {'R', opcFP, 0, 0x01}, OpFsubD: {'R', opcFP, 0, 0x05},
	OpFmulD: {'R', opcFP, 0, 0x09}, OpFdivD: {'R', opcFP, 0, 0x0d},
	OpFmvXD: {'R', opcFP, 0, 0x71}, OpFmvDX: {'R', opcFP, 0, 0x79},

	OpCsrrw: {'C', opcSystem, 1, 0}, OpCsrrs: {'C', opcSystem, 2, 0},
	OpCsrrc: {'C', opcSystem, 3, 0},
}

// Encode converts a decoded instruction back to its 32-bit word.
func Encode(i Inst) (uint32, error) {
	switch i.Op {
	case OpFence:
		return 0x0000000f, nil
	case OpEcall:
		return 0x00000073, nil
	case OpEbreak:
		return 0x00100073, nil
	case OpMret:
		return 0x30200073, nil
	case OpInvalid:
		return 0x00000000, nil
	}
	if i.Op < 0 || i.Op >= opCount || encTable[i.Op].fmt == 0 {
		return 0, fmt.Errorf("isa: cannot encode %v", i.Op)
	}
	sp := encTable[i.Op]
	switch sp.fmt {
	case 'R':
		return encR(sp.opc, sp.f3, sp.f7, i.Rd, i.Rs1, i.Rs2), nil
	case 'I':
		imm := i.Imm
		switch i.Op {
		case OpSlli, OpSrli:
			imm = (int64(sp.f7) << 6) | (i.Imm & 0x3f)
		case OpSrai:
			imm = (0x10 << 6) | (i.Imm & 0x3f)
		case OpSlliw, OpSrliw:
			imm = (int64(sp.f7) << 5) | (i.Imm & 0x1f)
		case OpSraiw:
			imm = (0x20 << 5) | (i.Imm & 0x1f)
		}
		return encI(sp.opc, sp.f3, i.Rd, i.Rs1, imm), nil
	case 'S':
		return encS(sp.opc, sp.f3, i.Rs1, i.Rs2, i.Imm), nil
	case 'B':
		return encB(sp.opc, sp.f3, i.Rs1, i.Rs2, i.Imm), nil
	case 'U':
		return encU(sp.opc, i.Rd, i.Imm), nil
	case 'J':
		return encJ(sp.opc, i.Rd, i.Imm), nil
	case 'C':
		return encI(sp.opc, sp.f3, i.Rd, i.Rs1, i.Imm), nil
	}
	return 0, fmt.Errorf("isa: bad format for %v", i.Op)
}

// MustEncode is Encode that panics on error (generator-internal use).
func MustEncode(i Inst) uint32 {
	w, err := Encode(i)
	if err != nil {
		panic(err)
	}
	return w
}

// --- Decoding -----------------------------------------------------------

func signExt(v uint64, bits uint) int64 {
	shift := 64 - bits
	return int64(v<<shift) >> shift
}

// Decode decodes a 32-bit instruction word. Undecodable words return an
// Inst with Op == OpInvalid (illegal instruction).
func Decode(raw uint32) Inst {
	i := Inst{Raw: raw, Op: OpInvalid}
	opc := raw & 0x7f
	rd := int(raw >> 7 & 0x1f)
	f3 := raw >> 12 & 0x7
	rs1 := int(raw >> 15 & 0x1f)
	rs2 := int(raw >> 20 & 0x1f)
	f7 := raw >> 25 & 0x7f
	immI := signExt(uint64(raw>>20), 12)
	immS := signExt(uint64(raw>>25<<5|raw>>7&0x1f), 12)
	immB := signExt(uint64(raw>>31<<12|(raw>>7&1)<<11|(raw>>25&0x3f)<<5|(raw>>8&0xf)<<1), 13)
	immU := int64(int32(raw & 0xfffff000))
	immJ := signExt(uint64(raw>>31<<20|(raw>>12&0xff)<<12|(raw>>20&1)<<11|(raw>>21&0x3ff)<<1), 21)

	set := func(op Op, rdv, rs1v, rs2v int, imm int64) Inst {
		return Inst{Op: op, Rd: rdv, Rs1: rs1v, Rs2: rs2v, Imm: imm, Raw: raw}
	}

	switch opc {
	case opcLui:
		return set(OpLui, rd, 0, 0, immU)
	case opcAuipc:
		return set(OpAuipc, rd, 0, 0, immU)
	case opcJal:
		return set(OpJal, rd, 0, 0, immJ)
	case opcJalr:
		if f3 == 0 {
			return set(OpJalr, rd, rs1, 0, immI)
		}
	case opcBranch:
		ops := map[uint32]Op{0: OpBeq, 1: OpBne, 4: OpBlt, 5: OpBge, 6: OpBltu, 7: OpBgeu}
		if op, ok := ops[f3]; ok {
			return set(op, 0, rs1, rs2, immB)
		}
	case opcLoad:
		ops := map[uint32]Op{0: OpLb, 1: OpLh, 2: OpLw, 3: OpLd, 4: OpLbu, 5: OpLhu, 6: OpLwu}
		if op, ok := ops[f3]; ok {
			return set(op, rd, rs1, 0, immI)
		}
	case opcLoadFP:
		if f3 == 3 {
			return set(OpFld, rd, rs1, 0, immI)
		}
	case opcStore:
		ops := map[uint32]Op{0: OpSb, 1: OpSh, 2: OpSw, 3: OpSd}
		if op, ok := ops[f3]; ok {
			return set(op, 0, rs1, rs2, immS)
		}
	case opcStFP:
		if f3 == 3 {
			return set(OpFsd, 0, rs1, rs2, immS)
		}
	case opcImm:
		switch f3 {
		case 0:
			return set(OpAddi, rd, rs1, 0, immI)
		case 2:
			return set(OpSlti, rd, rs1, 0, immI)
		case 3:
			return set(OpSltiu, rd, rs1, 0, immI)
		case 4:
			return set(OpXori, rd, rs1, 0, immI)
		case 6:
			return set(OpOri, rd, rs1, 0, immI)
		case 7:
			return set(OpAndi, rd, rs1, 0, immI)
		case 1:
			if raw>>26 == 0 {
				return set(OpSlli, rd, rs1, 0, int64(raw>>20&0x3f))
			}
		case 5:
			switch raw >> 26 {
			case 0x00:
				return set(OpSrli, rd, rs1, 0, int64(raw>>20&0x3f))
			case 0x10:
				return set(OpSrai, rd, rs1, 0, int64(raw>>20&0x3f))
			}
		}
	case opcImm32:
		switch f3 {
		case 0:
			return set(OpAddiw, rd, rs1, 0, immI)
		case 1:
			if f7 == 0 {
				return set(OpSlliw, rd, rs1, 0, int64(rs2))
			}
		case 5:
			switch f7 {
			case 0x00:
				return set(OpSrliw, rd, rs1, 0, int64(rs2))
			case 0x20:
				return set(OpSraiw, rd, rs1, 0, int64(rs2))
			}
		}
	case opcReg:
		key := f7<<3 | f3
		ops := map[uint32]Op{
			0x000: OpAdd, 0x100: OpSub, 0x001: OpSll, 0x002: OpSlt, 0x003: OpSltu,
			0x004: OpXor, 0x005: OpSrl, 0x105: OpSra, 0x006: OpOr, 0x007: OpAnd,
			0x008: OpMul, 0x009: OpMulh, 0x00a: OpMulhsu, 0x00b: OpMulhu,
			0x00c: OpDiv, 0x00d: OpDivu, 0x00e: OpRem, 0x00f: OpRemu,
		}
		if op, ok := ops[key]; ok {
			return set(op, rd, rs1, rs2, 0)
		}
	case opcReg32:
		key := f7<<3 | f3
		ops := map[uint32]Op{
			0x000: OpAddw, 0x100: OpSubw, 0x001: OpSllw, 0x005: OpSrlw, 0x105: OpSraw,
			0x008: OpMulw, 0x00c: OpDivw, 0x00d: OpDivuw, 0x00e: OpRemw, 0x00f: OpRemuw,
		}
		if op, ok := ops[key]; ok {
			return set(op, rd, rs1, rs2, 0)
		}
	case opcFP:
		switch f7 {
		case 0x01:
			return set(OpFaddD, rd, rs1, rs2, 0)
		case 0x05:
			return set(OpFsubD, rd, rs1, rs2, 0)
		case 0x09:
			return set(OpFmulD, rd, rs1, rs2, 0)
		case 0x0d:
			return set(OpFdivD, rd, rs1, rs2, 0)
		case 0x71:
			if rs2 == 0 && f3 == 0 {
				return set(OpFmvXD, rd, rs1, 0, 0)
			}
		case 0x79:
			if rs2 == 0 && f3 == 0 {
				return set(OpFmvDX, rd, rs1, 0, 0)
			}
		}
	case opcFence:
		// Fence ordering bits are ignored by the model; normalise operands.
		return set(OpFence, 0, 0, 0, 0)
	case opcSystem:
		switch {
		case raw == 0x00000073:
			return set(OpEcall, 0, 0, 0, 0)
		case raw == 0x00100073:
			return set(OpEbreak, 0, 0, 0, 0)
		case raw == 0x30200073:
			return set(OpMret, 0, 0, 0, 0)
		case f3 == 1:
			return set(OpCsrrw, rd, rs1, 0, int64(raw>>20))
		case f3 == 2:
			return set(OpCsrrs, rd, rs1, 0, int64(raw>>20))
		case f3 == 3:
			return set(OpCsrrc, rd, rs1, 0, int64(raw>>20))
		}
	}
	return i
}

// IllegalWord is a canonical undecodable instruction word.
const IllegalWord uint32 = 0x00000000

// NopWord is the canonical nop (addi x0, x0, 0).
const NopWord uint32 = 0x00000013

// Nop returns the decoded canonical nop.
func Nop() Inst { return Inst{Op: OpAddi, Raw: NopWord} }
