// Package isa implements the RV64 instruction subset used by the DejaVuzz
// stimulus generator: RV64I, the M extension, a double-precision floating
// point subset (enough to exercise FPU port contention), and the system
// instructions the swap runtime relies on.
//
// Every fact about an operation lives in one row of the ops table below:
// its mnemonic, its binutils-style match/mask encoding, its operand syntax,
// its resource class and its memory access size. Encode, Decode, Disasm,
// the text assembler and the register-source queries all read that row.
//
// The package provides binary encoding and decoding, a typed instruction IR
// (Item fragments) with a two-pass assembler back end that resolves labels
// and expands the standard pseudo-instructions, a text front end (Asm,
// Parse) that lowers assembly source to the same items, and a disassembler
// used by trace logs and bug reports.
package isa

import (
	"fmt"
	"strings"
)

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

// opInfo is one row of the ops table. The first five fields are the
// operation's facts; the rest are derived from its syntax (withSyntax).
type opInfo struct {
	name string
	// match is the encoding with every operand field zero; a word is this
	// operation when word&mask == match. Bits outside mask and outside the
	// operand fields are ignored (fence's ordering bits, FP rounding mode).
	match, mask uint32
	// syntax lists the assembly operands, comma-separated, in the order
	// they are written; see the operands table for the vocabulary.
	syntax string
	class  Class
	size   int8 // memory access size in bytes; 0 for non-memory ops

	args []operand
	regs uint8  // register fields the syntax names (fieldRd, ...)
	fp   uint8  // the subset of regs that name floating-point registers
	imm  immFmt // the immediate's encoding, immNone if it has none
}

// ops is the instruction table, one row per Op.
var ops = withSyntax([opCount]opInfo{
	OpInvalid: {name: "invalid", class: ClassInvalid},

	OpAdd:  {name: "add", match: 0x00000033, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassALU},
	OpSub:  {name: "sub", match: 0x40000033, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassALU},
	OpSll:  {name: "sll", match: 0x00001033, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassALU},
	OpSlt:  {name: "slt", match: 0x00002033, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassALU},
	OpSltu: {name: "sltu", match: 0x00003033, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassALU},
	OpXor:  {name: "xor", match: 0x00004033, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassALU},
	OpSrl:  {name: "srl", match: 0x00005033, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassALU},
	OpSra:  {name: "sra", match: 0x40005033, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassALU},
	OpOr:   {name: "or", match: 0x00006033, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassALU},
	OpAnd:  {name: "and", match: 0x00007033, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassALU},
	OpAddw: {name: "addw", match: 0x0000003b, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassALU},
	OpSubw: {name: "subw", match: 0x4000003b, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassALU},
	OpSllw: {name: "sllw", match: 0x0000103b, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassALU},
	OpSrlw: {name: "srlw", match: 0x0000503b, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassALU},
	OpSraw: {name: "sraw", match: 0x4000503b, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassALU},

	OpAddi:  {name: "addi", match: 0x00000013, mask: 0x0000707f, syntax: "rd,rs1,imm", class: ClassALU},
	OpSlti:  {name: "slti", match: 0x00002013, mask: 0x0000707f, syntax: "rd,rs1,imm", class: ClassALU},
	OpSltiu: {name: "sltiu", match: 0x00003013, mask: 0x0000707f, syntax: "rd,rs1,imm", class: ClassALU},
	OpXori:  {name: "xori", match: 0x00004013, mask: 0x0000707f, syntax: "rd,rs1,imm", class: ClassALU},
	OpOri:   {name: "ori", match: 0x00006013, mask: 0x0000707f, syntax: "rd,rs1,imm", class: ClassALU},
	OpAndi:  {name: "andi", match: 0x00007013, mask: 0x0000707f, syntax: "rd,rs1,imm", class: ClassALU},
	OpSlli:  {name: "slli", match: 0x00001013, mask: 0xfc00707f, syntax: "rd,rs1,shamt", class: ClassALU},
	OpSrli:  {name: "srli", match: 0x00005013, mask: 0xfc00707f, syntax: "rd,rs1,shamt", class: ClassALU},
	OpSrai:  {name: "srai", match: 0x40005013, mask: 0xfc00707f, syntax: "rd,rs1,shamt", class: ClassALU},
	OpAddiw: {name: "addiw", match: 0x0000001b, mask: 0x0000707f, syntax: "rd,rs1,imm", class: ClassALU},
	OpSlliw: {name: "slliw", match: 0x0000101b, mask: 0xfe00707f, syntax: "rd,rs1,shamtw", class: ClassALU},
	OpSrliw: {name: "srliw", match: 0x0000501b, mask: 0xfe00707f, syntax: "rd,rs1,shamtw", class: ClassALU},
	OpSraiw: {name: "sraiw", match: 0x4000501b, mask: 0xfe00707f, syntax: "rd,rs1,shamtw", class: ClassALU},

	OpLui:   {name: "lui", match: 0x00000037, mask: 0x0000007f, syntax: "rd,uimm", class: ClassALU},
	OpAuipc: {name: "auipc", match: 0x00000017, mask: 0x0000007f, syntax: "rd,uimm", class: ClassALU},

	OpJal:  {name: "jal", match: 0x0000006f, mask: 0x0000007f, syntax: "rd,jimm", class: ClassJump},
	OpJalr: {name: "jalr", match: 0x00000067, mask: 0x0000707f, syntax: "rd,imm(rs1)", class: ClassJumpReg},
	OpBeq:  {name: "beq", match: 0x00000063, mask: 0x0000707f, syntax: "rs1,rs2,bimm", class: ClassBranch},
	OpBne:  {name: "bne", match: 0x00001063, mask: 0x0000707f, syntax: "rs1,rs2,bimm", class: ClassBranch},
	OpBlt:  {name: "blt", match: 0x00004063, mask: 0x0000707f, syntax: "rs1,rs2,bimm", class: ClassBranch},
	OpBge:  {name: "bge", match: 0x00005063, mask: 0x0000707f, syntax: "rs1,rs2,bimm", class: ClassBranch},
	OpBltu: {name: "bltu", match: 0x00006063, mask: 0x0000707f, syntax: "rs1,rs2,bimm", class: ClassBranch},
	OpBgeu: {name: "bgeu", match: 0x00007063, mask: 0x0000707f, syntax: "rs1,rs2,bimm", class: ClassBranch},

	OpLb:  {name: "lb", match: 0x00000003, mask: 0x0000707f, syntax: "rd,imm(rs1)", class: ClassLoad, size: 1},
	OpLh:  {name: "lh", match: 0x00001003, mask: 0x0000707f, syntax: "rd,imm(rs1)", class: ClassLoad, size: 2},
	OpLw:  {name: "lw", match: 0x00002003, mask: 0x0000707f, syntax: "rd,imm(rs1)", class: ClassLoad, size: 4},
	OpLd:  {name: "ld", match: 0x00003003, mask: 0x0000707f, syntax: "rd,imm(rs1)", class: ClassLoad, size: 8},
	OpLbu: {name: "lbu", match: 0x00004003, mask: 0x0000707f, syntax: "rd,imm(rs1)", class: ClassLoad, size: 1},
	OpLhu: {name: "lhu", match: 0x00005003, mask: 0x0000707f, syntax: "rd,imm(rs1)", class: ClassLoad, size: 2},
	OpLwu: {name: "lwu", match: 0x00006003, mask: 0x0000707f, syntax: "rd,imm(rs1)", class: ClassLoad, size: 4},
	OpSb:  {name: "sb", match: 0x00000023, mask: 0x0000707f, syntax: "rs2,simm(rs1)", class: ClassStore, size: 1},
	OpSh:  {name: "sh", match: 0x00001023, mask: 0x0000707f, syntax: "rs2,simm(rs1)", class: ClassStore, size: 2},
	OpSw:  {name: "sw", match: 0x00002023, mask: 0x0000707f, syntax: "rs2,simm(rs1)", class: ClassStore, size: 4},
	OpSd:  {name: "sd", match: 0x00003023, mask: 0x0000707f, syntax: "rs2,simm(rs1)", class: ClassStore, size: 8},

	OpMul:    {name: "mul", match: 0x02000033, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassMul},
	OpMulh:   {name: "mulh", match: 0x02001033, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassMul},
	OpMulhsu: {name: "mulhsu", match: 0x02002033, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassMul},
	OpMulhu:  {name: "mulhu", match: 0x02003033, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassMul},
	OpDiv:    {name: "div", match: 0x02004033, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassDiv},
	OpDivu:   {name: "divu", match: 0x02005033, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassDiv},
	OpRem:    {name: "rem", match: 0x02006033, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassDiv},
	OpRemu:   {name: "remu", match: 0x02007033, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassDiv},
	OpMulw:   {name: "mulw", match: 0x0200003b, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassMul},
	OpDivw:   {name: "divw", match: 0x0200403b, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassDiv},
	OpDivuw:  {name: "divuw", match: 0x0200503b, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassDiv},
	OpRemw:   {name: "remw", match: 0x0200603b, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassDiv},
	OpRemuw:  {name: "remuw", match: 0x0200703b, mask: 0xfe00707f, syntax: "rd,rs1,rs2", class: ClassDiv},

	OpFld:   {name: "fld", match: 0x00003007, mask: 0x0000707f, syntax: "frd,imm(rs1)", class: ClassLoad, size: 8},
	OpFsd:   {name: "fsd", match: 0x00003027, mask: 0x0000707f, syntax: "frs2,simm(rs1)", class: ClassStore, size: 8},
	OpFaddD: {name: "fadd.d", match: 0x02000053, mask: 0xfe00007f, syntax: "frd,frs1,frs2", class: ClassFPU},
	OpFsubD: {name: "fsub.d", match: 0x0a000053, mask: 0xfe00007f, syntax: "frd,frs1,frs2", class: ClassFPU},
	OpFmulD: {name: "fmul.d", match: 0x12000053, mask: 0xfe00007f, syntax: "frd,frs1,frs2", class: ClassFPU},
	OpFdivD: {name: "fdiv.d", match: 0x1a000053, mask: 0xfe00007f, syntax: "frd,frs1,frs2", class: ClassFDiv},
	OpFmvXD: {name: "fmv.x.d", match: 0xe2000053, mask: 0xfff0707f, syntax: "rd,frs1", class: ClassFPU},
	OpFmvDX: {name: "fmv.d.x", match: 0xf2000053, mask: 0xfff0707f, syntax: "frd,rs1", class: ClassFPU},

	// fence's operands are normalised away: the model ignores ordering.
	OpFence:  {name: "fence", match: 0x0000000f, mask: 0x0000007f, class: ClassSystem},
	OpEcall:  {name: "ecall", match: 0x00000073, mask: 0xffffffff, class: ClassSystem},
	OpEbreak: {name: "ebreak", match: 0x00100073, mask: 0xffffffff, class: ClassSystem},
	OpMret:   {name: "mret", match: 0x30200073, mask: 0xffffffff, class: ClassSystem},
	OpCsrrw:  {name: "csrrw", match: 0x00001073, mask: 0x0000707f, syntax: "rd,csr,rs1", class: ClassSystem},
	OpCsrrs:  {name: "csrrs", match: 0x00002073, mask: 0x0000707f, syntax: "rd,csr,rs1", class: ClassSystem},
	OpCsrrc:  {name: "csrrc", match: 0x00003073, mask: 0x0000707f, syntax: "rd,csr,rs1", class: ClassSystem},
})

// Register fields of an instruction word.
const (
	fieldRd  = 1 << iota // bits 11:7
	fieldRs1             // bits 19:15
	fieldRs2             // bits 24:20
)

// immFmt is how an instruction word carries its immediate.
type immFmt uint8

const (
	immNone   immFmt = iota
	immI             // signed 12 bits at 31:20
	immS             // signed 12 bits split across 31:25 and 11:7
	immB             // signed 13-bit even PC offset
	immU             // upper 20 bits, value in 31:12
	immJ             // signed 21-bit even PC offset
	immShamt         // unsigned 6 bits at 25:20
	immShamtW        // unsigned 5 bits at 24:20
	immCSR           // unsigned 12 bits at 31:20
)

// operand is one kind of assembly operand.
type operand uint8

// operands is the syntax vocabulary, indexed by operand: the token a row's
// syntax names it by, the register field it fills (floating-point or not)
// and the immediate it carries, with the range the text assembler accepts.
// An "imm(rs1)" token is a base register and its offset; the letter before
// "imm" names the RISC-V immediate format when it is not I.
var operands = [...]struct {
	token  string
	field  uint8
	fp     bool
	imm    immFmt
	lo, hi int64
}{
	{token: "rd", field: fieldRd},
	{token: "rs1", field: fieldRs1},
	{token: "rs2", field: fieldRs2},
	{token: "frd", field: fieldRd, fp: true},
	{token: "frs1", field: fieldRs1, fp: true},
	{token: "frs2", field: fieldRs2, fp: true},
	{token: "imm", imm: immI, lo: -2048, hi: 2047},
	{token: "shamt", imm: immShamt, lo: 0, hi: 63},
	{token: "shamtw", imm: immShamtW, lo: 0, hi: 31},
	{token: "uimm", imm: immU, lo: 0, hi: 0xfffff},
	{token: "csr", imm: immCSR, lo: 0, hi: 4095},
	{token: "imm(rs1)", field: fieldRs1, imm: immI, lo: -2048, hi: 2047},
	{token: "simm(rs1)", field: fieldRs1, imm: immS, lo: -2048, hi: 2047},
	{token: "bimm", imm: immB, lo: -4096, hi: 4094},
	{token: "jimm", imm: immJ, lo: -1 << 20, hi: 1<<20 - 2},
}

// withSyntax fills in each row's operand list, register fields and
// immediate format from its syntax.
func withSyntax(table [opCount]opInfo) [opCount]opInfo {
	for op := range table {
		r := &table[op]
		if r.syntax == "" {
			continue
		}
		for _, tok := range strings.Split(r.syntax, ",") {
			k := 0
			for k < len(operands) && operands[k].token != tok {
				k++
			}
			if k == len(operands) {
				panic(fmt.Sprintf("isa: %s: unknown operand %q", r.name, tok))
			}
			o := &operands[k]
			r.args = append(r.args, operand(k))
			r.regs |= o.field
			if o.fp {
				r.fp |= o.field
			}
			if o.imm != immNone {
				r.imm = o.imm
			}
		}
	}
	return table
}

// decodeOrder lists the operations grouped by major opcode, in table order
// within each group, and byOpcode indexes it: the candidates for opcode o
// are decodeOrder[byOpcode[o]:byOpcode[o+1]].
var decodeOrder, byOpcode = indexByOpcode()

func indexByOpcode() (order [opCount - 1]Op, index [129]uint8) {
	n := 0
	for opc := range 128 {
		index[opc] = uint8(n)
		for op := OpInvalid + 1; op < opCount; op++ {
			if ops[op].match&0x7f == uint32(opc) {
				order[n] = op
				n++
			}
		}
	}
	index[128] = uint8(n)
	return order, index
}

func (o Op) String() string {
	if o >= 0 && o < opCount {
		return ops[o].name
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// row returns the operation's table row; an out-of-range Op reads
// OpInvalid's.
func (o Op) row() *opInfo {
	if o < 0 || o >= opCount {
		return &ops[OpInvalid]
	}
	return &ops[o]
}

// Class returns the resource class of the operation.
func (o Op) Class() Class { return o.row().class }

// MemSize returns the access size in bytes for loads/stores, else 0.
func (o Op) MemSize() int { return int(o.row().size) }

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
func (i Inst) FPDest() bool { return i.Op.row().fp&fieldRd != 0 }

// FPSources reports whether rs1/rs2 name floating-point registers.
func (i Inst) FPSources() (fp1, fp2 bool) {
	fp := i.Op.row().fp
	return fp&fieldRs1 != 0, fp&fieldRs2 != 0
}

// Sources reports whether the instruction reads rs1 and rs2.
func (i Inst) Sources() (rs1, rs2 bool) {
	regs := i.Op.row().regs
	return regs&fieldRs1 != 0, regs&fieldRs2 != 0
}

// --- Encoding -----------------------------------------------------------

func encB(imm int64) uint32 {
	u := uint32(imm)
	return (u>>11&1)<<7 | (u>>1&0xf)<<8 | (u>>5&0x3f)<<25 | (u>>12&1)<<31
}

func encJ(imm int64) uint32 {
	u := uint32(imm)
	return (u>>12&0xff)<<12 | (u>>11&1)<<20 | (u>>1&0x3ff)<<21 | (u>>20&1)<<31
}

// Encode converts a decoded instruction back to its 32-bit word: the row's
// match with the syntax's fields filled in. OpInvalid encodes as
// IllegalWord.
func Encode(i Inst) (uint32, error) {
	if i.Op < 0 || i.Op >= opCount {
		return 0, fmt.Errorf("isa: cannot encode %v", i.Op)
	}
	r := &ops[i.Op]
	w := r.match
	if r.regs&fieldRd != 0 {
		w |= uint32(i.Rd) << 7
	}
	if r.regs&fieldRs1 != 0 {
		w |= uint32(i.Rs1) << 15
	}
	if r.regs&fieldRs2 != 0 {
		w |= uint32(i.Rs2) << 20
	}
	u := uint32(i.Imm)
	switch r.imm {
	case immI, immCSR:
		w |= u & 0xfff << 20
	case immS:
		w |= (u&0x1f)<<7 | (u>>5&0x7f)<<25
	case immB:
		w |= encB(i.Imm)
	case immU:
		w |= u & 0xfffff000
	case immJ:
		w |= encJ(i.Imm)
	case immShamt:
		w |= u & 0x3f << 20
	case immShamtW:
		w |= u & 0x1f << 20
	}
	return w, nil
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

// Decode decodes a 32-bit instruction word: the first row of the word's
// major opcode whose mask and match it meets, with the fields that row's
// syntax names. Undecodable words return an Inst with Op == OpInvalid
// (illegal instruction).
func Decode(raw uint32) Inst {
	opc := raw & 0x7f
	for _, op := range decodeOrder[byOpcode[opc]:byOpcode[opc+1]] {
		r := &ops[op]
		if raw&r.mask != r.match {
			continue
		}
		i := Inst{Op: op, Raw: raw}
		if r.regs&fieldRd != 0 {
			i.Rd = int(raw >> 7 & 0x1f)
		}
		if r.regs&fieldRs1 != 0 {
			i.Rs1 = int(raw >> 15 & 0x1f)
		}
		if r.regs&fieldRs2 != 0 {
			i.Rs2 = int(raw >> 20 & 0x1f)
		}
		switch r.imm {
		case immI:
			i.Imm = signExt(uint64(raw>>20), 12)
		case immS:
			i.Imm = signExt(uint64(raw>>25<<5|raw>>7&0x1f), 12)
		case immB:
			i.Imm = signExt(uint64(raw>>31<<12|(raw>>7&1)<<11|(raw>>25&0x3f)<<5|(raw>>8&0xf)<<1), 13)
		case immU:
			i.Imm = int64(int32(raw & 0xfffff000))
		case immJ:
			i.Imm = signExt(uint64(raw>>31<<20|(raw>>12&0xff)<<12|(raw>>20&1)<<11|(raw>>21&0x3ff)<<1), 21)
		case immShamt:
			i.Imm = int64(raw >> 20 & 0x3f)
		case immShamtW:
			i.Imm = int64(raw >> 20 & 0x1f)
		case immCSR:
			i.Imm = int64(raw >> 20)
		}
		return i
	}
	return Inst{Op: OpInvalid, Raw: raw}
}

// DecodeMemo memoises Decode in a direct-mapped table keyed by the raw
// word, not by pc, so a packet load or a store into code can never return
// a stale instruction: a slot answers only for the word it holds. Stimulus
// programs loop over a handful of distinct words, so most lookups hit.
// The zero value is ready to use: an empty slot holds the zero Inst, which
// is Decode(0). A memo can never change a result, only skip recomputing
// one; it is not safe for concurrent use, so each simulator owns its own.
type DecodeMemo [64]Inst

// Decode returns the memo's slot holding Decode(raw), filling it on a
// miss. The slot is the memo's: a later Decode may reuse it, so callers
// copy the instruction out. A hit inlines to a hash, a compare and the
// copy; keep it within the inliner's budget.
func (m *DecodeMemo) Decode(raw uint32) *Inst {
	e := &m[raw*2654435761>>26]
	if e.Raw != raw {
		e.decode(raw)
	}
	return e
}

// decode fills a memo slot. It stays out of line so that DecodeMemo.Decode
// inlines.
//
//go:noinline
func (i *Inst) decode(raw uint32) { *i = Decode(raw) }

// IllegalWord is a canonical undecodable instruction word.
const IllegalWord uint32 = 0x00000000

// NopWord is the canonical nop (addi x0, x0, 0).
const NopWord uint32 = 0x00000013

// Nop returns the decoded canonical nop.
func Nop() Inst { return Inst{Op: OpAddi, Raw: NopWord} }
