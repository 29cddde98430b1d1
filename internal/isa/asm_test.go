package isa

import (
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

func TestAsmErrors(t *testing.T) {
	for _, src := range []string{
		"bogus t0, t1",
		"addi t0",
		"ld a0, 8[sp]",
		"li t0",
		"dup: nop\ndup: nop",
		"not bogus, t0",
		"neg bogus, t0",
		"seqz bogus, t0",
		"snez bogus, t0",
	} {
		if _, err := Asm(0, src); err == nil {
			t.Errorf("Asm(%q) succeeded, want error", src)
		}
	}
}

// Property: li materialises arbitrary 64-bit constants exactly (verified by
// symbolic execution of the emitted sequence).
func TestLiMaterialisation(t *testing.T) {
	exec := func(seq []Inst) uint64 {
		var regs [32]uint64
		for _, in := range seq {
			switch in.Op {
			case OpAddi:
				regs[in.Rd] = regs[in.Rs1] + uint64(in.Imm)
			case OpAddiw:
				regs[in.Rd] = uint64(int64(int32(uint32(regs[in.Rs1]) + uint32(in.Imm))))
			case OpLui:
				regs[in.Rd] = uint64(in.Imm)
			case OpSlli:
				regs[in.Rd] = regs[in.Rs1] << uint(in.Imm)
			case OpOri:
				regs[in.Rd] = regs[in.Rs1] | uint64(in.Imm)
			default:
				t.Fatalf("unexpected op in li sequence: %v", in.Op)
			}
		}
		return regs[5]
	}
	check := func(v int64) bool {
		return exec(liSeq(5, v)) == uint64(v)
	}
	for _, v := range []int64{0, 1, -1, 2047, -2048, 2048, 0x7fffffff, -0x80000000,
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
