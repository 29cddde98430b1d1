package isa

import (
	"errors"
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
// ".word <value>" and ".illegal" literals, the pseudo-instructions nop,
// li, la, mv, not, neg, seqz, snez, j, jr, call, ret, beqz, bnez, fmv.d,
// and the short forms jal target and jalr rs. `la` expands to auipc+addi;
// `li` expands to the shortest constant materialisation sequence.
// Expansion sizes are fixed per item, so labels resolve deterministically.
// A real instruction's operands follow its table row's syntax: an operand
// of the wrong kind, or an immediate its field cannot hold, is refused
// with its position and syntax name. A branch, jump, call or la operand
// that is not an immediate names a label, resolved when the items are
// assembled.
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
		// When rounding carries hi to 1<<31, lui loads -1<<31 and addiw's
		// 32-bit sum still lands on v.
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

// opByName returns the operation whose mnemonic is name, or OpInvalid.
func opByName(name string) Op {
	for op := OpInvalid + 1; op < opCount; op++ {
		if ops[op].name == name {
			return op
		}
	}
	return OpInvalid
}

func reg(arg string) (int, error) {
	if r := RegNum(arg); r >= 0 {
		return r, nil
	}
	return 0, fmt.Errorf("bad register %q", arg)
}

// parseField parses an immediate operand that must lie in [lo, hi]. Unlike
// parseImm it keeps no 64-bit patterns: 0xffffffffffffffff is not -1.
func parseField(arg string, lo, hi int64) (int64, error) {
	v, err := strconv.ParseInt(arg, 0, 64)
	switch {
	case err != nil && !errors.Is(err, strconv.ErrRange), strings.HasPrefix(arg, "+"):
		if RegNum(arg) >= 0 || FRegNum(arg) >= 0 {
			return 0, fmt.Errorf("want an immediate, got register %s", arg)
		}
		return 0, fmt.Errorf("bad immediate %q", arg)
	case err != nil || v < lo || v > hi:
		return 0, fmt.Errorf("immediate %s outside [%d, %d]", arg, lo, hi)
	}
	return v, nil
}

// splitMem splits an "imm(rs1)" operand into its offset text and base
// register.
func splitMem(arg string) (string, int, error) {
	open := strings.Index(arg, "(")
	close := strings.LastIndex(arg, ")")
	if open < 0 || close < open {
		return "", 0, fmt.Errorf("bad memory operand %q", arg)
	}
	r, err := reg(strings.TrimSpace(arg[open+1 : close]))
	if err != nil {
		return "", 0, err
	}
	return strings.TrimSpace(arg[:open]), r, nil
}

// target classifies a call or la operand: an absolute address, or else a
// label name resolved when the items are assembled. Identifiers cannot
// start with a digit or '-', so no operand is both.
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

// lower translates one instruction line into its item. Pseudo-instructions
// and short forms are written out here; every other mnemonic is lowered by
// its table row's syntax.
func lower(mnem string, args []string) (Item, error) {
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s needs %d operands, got %d", mnem, n, len(args))
		}
		return nil
	}
	// expand lowers a pseudo-instruction as the real instruction it
	// stands for.
	expand := func(name string, args ...string) (Item, error) {
		it, err := lowerOp(opByName(name), args)
		if err != nil {
			return Item{}, fmt.Errorf("%s: %v", mnem, err)
		}
		return it, nil
	}

	switch mnem {
	case "nop", ".illegal", "ret":
		if err := need(0); err != nil {
			return Item{}, err
		}
		switch mnem {
		case "nop":
			return Word(NopWord), nil
		case ".illegal":
			return Illegal(), nil
		}
		return inst(Inst{Op: OpJalr, Rd: RegZero, Rs1: RegRA})
	case ".word":
		if err := need(1); err != nil {
			return Item{}, err
		}
		v, err := parseField(args[0], -1<<31, 1<<32-1)
		if err != nil {
			return Item{}, err
		}
		return Word(uint32(v)), nil
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
	case "mv", "not", "neg", "seqz", "snez", "beqz", "bnez", "fmv.d":
		if err := need(2); err != nil {
			return Item{}, err
		}
		a, b := args[0], args[1]
		switch mnem {
		case "mv":
			return expand("addi", a, b, "0")
		case "not":
			return expand("xori", a, b, "-1")
		case "neg":
			return expand("sub", a, "zero", b)
		case "seqz":
			return expand("sltiu", a, b, "1")
		case "snez":
			return expand("sltu", a, "zero", b)
		case "beqz":
			return expand("beq", a, "zero", b)
		case "bnez":
			return expand("bne", a, "zero", b)
		}
		// The model has no fsgnj.d: fmv.d moves through fadd.d with ft0.
		return expand("fadd.d", a, b, "ft0")
	case "j":
		if err := need(1); err != nil {
			return Item{}, err
		}
		return expand("jal", "zero", args[0])
	case "jr", "jalr":
		// jr rs and the short form jalr rs (rd = ra); jalr's full form is
		// its row's.
		if mnem == "jalr" && len(args) != 1 {
			break
		}
		if err := need(1); err != nil {
			return Item{}, err
		}
		rs, err := reg(args[0])
		if err != nil {
			return Item{}, err
		}
		rd := RegRA
		if mnem == "jr" {
			rd = RegZero
		}
		return inst(Inst{Op: OpJalr, Rd: rd, Rs1: rs})
	case "jal":
		// The short form jal target links ra.
		if len(args) == 1 {
			return expand("jal", "ra", args[0])
		}
	}

	op := opByName(mnem)
	if op == OpInvalid {
		return Item{}, fmt.Errorf("unknown mnemonic %q", mnem)
	}
	return lowerOp(op, args)
}

// lowerOp lowers a real instruction by its row's syntax: each operand is
// parsed as the syntax names it, and a branch or jump whose offset operand
// names a label becomes a label item.
func lowerOp(op Op, args []string) (Item, error) {
	r := &ops[op]
	if len(args) != len(r.args) {
		return Item{}, fmt.Errorf("%s needs %d operands, got %d", r.name, len(r.args), len(args))
	}
	in := Inst{Op: op}
	label := ""
	for k, a := range r.args {
		var err error
		label, err = in.setOperand(a, args[k])
		if err != nil {
			return Item{}, fmt.Errorf("%s operand %d (%s): %v", r.name, k+1, operands[a].token, err)
		}
	}
	switch {
	case label == "":
		return inst(in)
	case r.class == ClassBranch:
		return Branch(op, in.Rs1, in.Rs2, label), nil
	}
	return Jal(in.Rd, label), nil
}

// setOperand parses one operand into the field its kind names. A branch or
// jump offset may instead name a label, which it returns.
func (in *Inst) setOperand(a operand, arg string) (label string, err error) {
	o := &operands[a]
	if o.imm == immNone {
		r, want := RegNum(arg), "an integer"
		if o.fp {
			r, want = FRegNum(arg), "a floating-point"
		}
		if r < 0 {
			return "", fmt.Errorf("want %s register, got %q", want, arg)
		}
		switch o.field {
		case fieldRd:
			in.Rd = r
		case fieldRs1:
			in.Rs1 = r
		default:
			in.Rs2 = r
		}
		return "", nil
	}
	if o.field == fieldRs1 { // imm(rs1)
		off, base, err := splitMem(arg)
		if err != nil {
			return "", err
		}
		in.Rs1 = base
		if off == "" {
			return "", nil
		}
		arg = off
	}
	if (o.imm == immB || o.imm == immJ) && isIdent(arg) {
		return arg, nil
	}
	v, err := parseField(arg, o.lo, o.hi)
	if err != nil {
		return "", err
	}
	switch {
	case (o.imm == immB || o.imm == immJ) && v&1 != 0:
		return "", fmt.Errorf("odd offset %s", arg)
	case o.imm == immU:
		v <<= 12
	}
	in.Imm = v
	return "", nil
}
