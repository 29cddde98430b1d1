package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAsmBasic(t *testing.T) {
	p, err := Asm(0x1000, `
		start:
			addi t0, zero, 5
			add  t1, t0, t0
			beq  t1, t0, start
			nop
			j done
			sub t2, t1, t0
		done:
			ecall
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Words) != 7 {
		t.Fatalf("got %d words, want 7", len(p.Words))
	}
	if p.Labels["start"] != 0x1000 || p.Labels["done"] != 0x1018 {
		t.Fatalf("labels: %#v", p.Labels)
	}
	// beq t1, t0, start at pc 0x1008 -> offset -8
	d := Decode(p.Words[2])
	if d.Op != OpBeq || d.Imm != -8 {
		t.Fatalf("branch decode: %+v", d)
	}
	// j done at pc 0x1010 -> offset +8
	d = Decode(p.Words[4])
	if d.Op != OpJal || d.Rd != 0 || d.Imm != 8 {
		t.Fatalf("jump decode: %+v", d)
	}
}

func TestAsmLoadsStores(t *testing.T) {
	p := MustAsm(0, `
		ld a0, 8(sp)
		sd a0, -8(sp)
		lbu a1, 0(a0)
		fld fa0, 16(a0)
		fsd fa0, 24(a0)
	`)
	want := []struct {
		op  Op
		imm int64
	}{{OpLd, 8}, {OpSd, -8}, {OpLbu, 0}, {OpFld, 16}, {OpFsd, 24}}
	for i, w := range want {
		d := Decode(p.Words[i])
		if d.Op != w.op || d.Imm != w.imm {
			t.Errorf("word %d: got %v imm=%d, want %v imm=%d", i, d.Op, d.Imm, w.op, w.imm)
		}
	}
}

func TestAsmPseudo(t *testing.T) {
	p := MustAsm(0x2000, `
		la t0, target
		li t1, 42
		mv a0, t1
		not a1, a0
		call target
		ret
		jr t0
		beqz a0, target
	target:
		nop
	`)
	// la expands to auipc+addi resolving to the label.
	d0 := Decode(p.Words[0])
	d1 := Decode(p.Words[1])
	if d0.Op != OpAuipc || d1.Op != OpAddi {
		t.Fatalf("la expansion: %v %v", d0.Op, d1.Op)
	}
	target := 0x2000 + uint64(d0.Imm) + uint64(d1.Imm)
	if target != p.Labels["target"] {
		t.Fatalf("la resolves to %#x, want %#x", target, p.Labels["target"])
	}
	if d := Decode(p.Words[2]); d.Op != OpAddi || d.Imm != 42 {
		t.Fatalf("li 42: %+v", d)
	}
}

func TestAsmIllegalAndWord(t *testing.T) {
	p := MustAsm(0, `
		.illegal
		.word 0xdeadbeef
	`)
	if p.Words[0] != IllegalWord || p.Words[1] != 0xdeadbeef {
		t.Fatalf("words: %#x", p.Words)
	}
}

// TestAsmErrors: malformed lines are refused. A wrong operand is refused
// by name: a register where the syntax wants an immediate and the reverse,
// and an immediate that does not fit its field.
func TestAsmErrors(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"bogus t0, t1", "unknown mnemonic"},
		{"addi t0", "needs 3 operands"},
		{"ld a0, 8[sp]", "bad memory operand"},
		{"li t0", "needs 2 operands"},
		{"dup: nop\ndup: nop", "duplicate label"},
		{"not bogus, t0", "operand 1 (rd)"},
		{"neg bogus, t0", "operand 1 (rd)"},
		{"seqz bogus, t0", "operand 1 (rd)"},
		{"snez bogus, t0", "operand 1 (rd)"},
		{"add t0, t1, 5", "operand 3 (rs2): want an integer register"},
		{"addi t0, t1, t2", "operand 3 (imm): want an immediate, got register t2"},
		{"addi t0, t1, 5000", "operand 3 (imm): immediate 5000 outside [-2048, 2047]"},
		{"sd t0, 4096(t1)", "operand 2 (simm(rs1)): immediate 4096 outside [-2048, 2047]"},
		{"slliw t0, t1, 40", "operand 3 (shamtw): immediate 40 outside [0, 31]"},
		{"slli t0, t1, 64", "operand 3 (shamt)"},
		{"ld t0, -2049(t1)", "operand 2 (imm(rs1))"},
		{"andi t0, t1, 0xfff", "operand 3 (imm)"},
		{"addi t0, t1, 0xffffffffffffffff", "operand 3 (imm)"},
		{"csrrw t0, 4096, t1", "operand 2 (csr)"},
		{"csrrs t0, -1, t1", "operand 2 (csr)"},
		{"lui t0, 0x100000", "operand 2 (uimm)"},
		{"beq t0, t1, 3", "operand 3 (bimm): odd offset"},
		{"beq t0, t1, 4096", "operand 3 (bimm)"},
		{"jal ra, 0x100000", "operand 2 (jimm)"},
		{"fadd.d fa0, t0, fa1", "operand 2 (frs1): want a floating-point register"},
		{"fld t0, 0(a0)", "operand 1 (frd)"},
		{"ld fa0, 0(a0)", "operand 1 (rd): want an integer register"},
		{"fsd t0, 0(a0)", "operand 1 (frs2)"},
		{"ecall t0", "needs 0 operands"},
		{"ret t0", "needs 0 operands"},
		{".word 0x100000000", "outside"},
	} {
		_, err := Asm(0, c.src)
		if err == nil {
			t.Errorf("Asm(%q) succeeded, want error", c.src)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Asm(%q) = %v, want it to mention %q", c.src, err, c.want)
		}
	}
}

// TestAsmFieldBounds: for every instruction with an immediate, its
// operand's range is exactly what the field holds, the disassembly of
// either end reassembles to the same instruction, and one step beyond
// either end is refused.
func TestAsmFieldBounds(t *testing.T) {
	for op := OpInvalid + 1; op < opCount; op++ {
		r := &ops[op]
		for _, a := range r.args {
			o := &operands[a]
			if o.imm == immNone {
				continue
			}
			step := int64(1)
			if o.imm == immB || o.imm == immJ {
				step = 2
			}
			for _, v := range []int64{o.lo, o.hi} {
				if o.imm == immU {
					v <<= 12
				}
				want := Decode(MustEncode(Inst{Op: op, Rd: 5, Rs1: 6, Rs2: 7, Imm: v}))
				if want.Imm != v && !(o.imm == immU && want.Imm == int64(int32(v))) {
					t.Errorf("%s: field cannot hold bound %d (decodes as %d)", r.name, v, want.Imm)
				}
				p, err := Asm(0, Disasm(want))
				if err != nil {
					t.Errorf("%s: bound %d refused: %v", r.name, v, err)
					continue
				}
				if got := Decode(p.Words[0]); got != want {
					t.Errorf("%q reassembles to %q", Disasm(want), Disasm(got))
				}
			}
			if o.imm == immU { // Disasm renders only the 20 encodable bits
				continue
			}
			for _, v := range []int64{o.lo - step, o.hi + step} {
				if Decode(MustEncode(Inst{Op: op, Imm: v})).Imm == v {
					t.Errorf("%s: field holds %d, outside [%d, %d]", r.name, v, o.lo, o.hi)
				}
				text := Disasm(Inst{Op: op, Rd: 5, Rs1: 6, Rs2: 7, Imm: v})
				if _, err := Asm(0, text); err == nil {
					t.Errorf("%q assembled; its immediate is outside [%d, %d]", text, o.lo, o.hi)
				}
			}
		}
	}
}

// Property: li materialises arbitrary 64-bit constants exactly (verified by
// executing the emitted sequence as encoded and decoded again, so an
// immediate its field cannot hold shows).
func TestLiMaterialisation(t *testing.T) {
	exec := func(seq []Inst) uint64 {
		var regs [32]uint64
		for _, in := range seq {
			in = Decode(MustEncode(in))
			switch in.Op {
			case OpAddi:
				regs[in.Rd] = regs[in.Rs1] + uint64(in.Imm)
			case OpAddiw:
				regs[in.Rd] = uint64(int64(int32(uint32(regs[in.Rs1]) + uint32(in.Imm))))
			case OpLui:
				regs[in.Rd] = uint64(in.Imm)
			case OpSlli:
				regs[in.Rd] = regs[in.Rs1] << uint(in.Imm)
			default:
				t.Fatalf("unexpected op in li sequence: %v", in.Op)
			}
		}
		return regs[5]
	}
	check := func(v int64) bool {
		return exec(liSeq(5, v)) == uint64(v)
	}
	for _, v := range []int64{0, 1, -1, 2047, -2048, 2048, 0x7fffffff, 0x7ffff800, -0x80000000,
		0x7ffff800 << 12,
		0x80000000, 0x123456789abcdef0 & ^int64(0), -0x123456789abcdef0,
		int64(^uint64(0) >> 1), -int64(^uint64(0)>>1) - 1} {
		if !check(v) {
			t.Errorf("li %#x materialises to %#x", v, exec(liSeq(5, v)))
		}
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}
