package isa

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestTypedBuilderMatchesText assembles every program asm_test.go checks
// twice — from text through Parse, and from typed items built with the
// constructors — and requires the same words from both.
func TestTypedBuilderMatchesText(t *testing.T) {
	ri := func(op Op, rd, rs1, rs2 int) Item { return I(Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}) }
	ii := func(op Op, rd, rs1 int, imm int64) Item { return I(Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm}) }
	st := func(op Op, rs2, rs1 int, imm int64) Item { return I(Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: imm}) }
	cases := []struct {
		name  string
		base  uint64
		src   string
		items []Item
	}{
		{"basic", 0x1000, `
			start:
				addi t0, zero, 5
				add  t1, t0, t0
				beq  t1, t0, start
				nop
				j done
				sub t2, t1, t0
			done:
				ecall`,
			[]Item{
				Label("start"),
				ii(OpAddi, RegT0, RegZero, 5),
				ri(OpAdd, RegT1, RegT0, RegT0),
				Branch(OpBeq, RegT1, RegT0, "start"),
				I(Nop()),
				Jal(RegZero, "done"),
				ri(OpSub, RegT2, RegT1, RegT0),
				Label("done"),
				I(Inst{Op: OpEcall}),
			}},
		{"loads-stores", 0, `
			ld a0, 8(sp)
			sd a0, -8(sp)
			lbu a1, 0(a0)
			fld fa0, 16(a0)
			fsd fa0, 24(a0)`,
			[]Item{
				ii(OpLd, RegA0, RegSP, 8),
				st(OpSd, RegA0, RegSP, -8),
				ii(OpLbu, RegA1, RegA0, 0),
				ii(OpFld, 10, RegA0, 16),
				st(OpFsd, 10, RegA0, 24),
			}},
		{"pseudo", 0x2000, `
			la t0, target
			li t1, 42
			mv a0, t1
			not a1, a0
			call target
			ret
			jr t0
			beqz a0, target
		target:
			nop`,
			[]Item{
				La(RegT0, "target"),
				Li(RegT1, 42),
				ii(OpAddi, RegA0, RegT1, 0),
				ii(OpXori, RegA1, RegA0, -1),
				CallLabel("target"),
				ii(OpJalr, RegZero, RegRA, 0),
				ii(OpJalr, RegZero, RegT0, 0),
				Branch(OpBeq, RegA0, RegZero, "target"),
				Label("target"),
				I(Nop()),
			}},
		{"illegal-and-word", 0, `
			.illegal
			.word 0xdeadbeef`,
			[]Item{Illegal(), Word(0xdeadbeef)}},
		{"call-absolute", 0x4000, "call 0x1000\nnop", []Item{Call(0x1000), I(Nop())}},
	}
	// The li values TestLiMaterialisation pins.
	for _, v := range []int64{0, 1, -1, 2047, -2048, 2048, 0x7fffffff, -0x80000000,
		0x80000000, 0x123456789abcdef0, -0x123456789abcdef0,
		int64(^uint64(0) >> 1), -int64(^uint64(0)>>1) - 1} {
		cases = append(cases, struct {
			name  string
			base  uint64
			src   string
			items []Item
		}{fmt.Sprintf("li %d", v), 0, fmt.Sprintf("li t0, %d", v), []Item{Li(RegT0, v)}})
	}
	for _, c := range cases {
		text, err := Asm(c.base, c.src)
		if err != nil {
			t.Fatalf("%s: text: %v", c.name, err)
		}
		typed, err := Assemble(c.base, c.items)
		if err != nil {
			t.Fatalf("%s: typed: %v", c.name, err)
		}
		if !slices.Equal(text.Words, typed.Words) {
			t.Errorf("%s: text %#x, typed %#x", c.name, text.Words, typed.Words)
		}
		if !slices.Equal(text.Bytes(), typed.Bytes()) {
			t.Errorf("%s: byte renderings differ", c.name)
		}
		if WordCount(c.items) != len(typed.Words) {
			t.Errorf("%s: WordCount %d, assembled %d words", c.name, WordCount(c.items), len(typed.Words))
		}
	}
}

// TestAssembleErrors: typed fragments refuse undefined and duplicate
// labels; text errors keep their asm:<line>: prefix from the shared back
// end.
func TestAssembleErrors(t *testing.T) {
	if _, err := Assemble(0, []Item{Jal(RegZero, "nowhere")}); err == nil {
		t.Error("jump to an undefined label assembled")
	}
	if _, err := Assemble(0, []Item{Label("a"), I(Nop()), Label("a")}); err == nil {
		t.Error("duplicate label assembled")
	}
	for src, prefix := range map[string]string{
		"nop\nj nowhere":      "asm:2: ",
		"x: nop\nnop\nx: nop": "asm:3: ",
		"nop\nbogus t0":       "asm:2: ",
	} {
		_, err := Asm(0, src)
		if err == nil || !strings.HasPrefix(err.Error(), prefix) {
			t.Errorf("Asm(%q) error %v, want prefix %q", src, err, prefix)
		}
	}
}
