package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Inst{
		{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpSub, Rd: 31, Rs1: 30, Rs2: 29},
		{Op: OpAddi, Rd: 5, Rs1: 6, Imm: -2048},
		{Op: OpAddi, Rd: 5, Rs1: 6, Imm: 2047},
		{Op: OpSlli, Rd: 7, Rs1: 8, Imm: 63},
		{Op: OpSrai, Rd: 7, Rs1: 8, Imm: 17},
		{Op: OpSlliw, Rd: 7, Rs1: 8, Imm: 31},
		{Op: OpSraiw, Rd: 7, Rs1: 8, Imm: 3},
		{Op: OpLui, Rd: 9, Imm: 0x7ffff000},
		{Op: OpLui, Rd: 9, Imm: -4096},
		{Op: OpAuipc, Rd: 10, Imm: 0x1000},
		{Op: OpJal, Rd: 1, Imm: -1048576},
		{Op: OpJal, Rd: 0, Imm: 1048574},
		{Op: OpJalr, Rd: 1, Rs1: 5, Imm: 16},
		{Op: OpBeq, Rs1: 1, Rs2: 2, Imm: -4096},
		{Op: OpBne, Rs1: 3, Rs2: 4, Imm: 4094},
		{Op: OpBltu, Rs1: 5, Rs2: 6, Imm: 8},
		{Op: OpLd, Rd: 11, Rs1: 12, Imm: -8},
		{Op: OpLbu, Rd: 13, Rs1: 14, Imm: 255},
		{Op: OpSd, Rs1: 15, Rs2: 16, Imm: -16},
		{Op: OpSb, Rs1: 17, Rs2: 18, Imm: 2047},
		{Op: OpMul, Rd: 19, Rs1: 20, Rs2: 21},
		{Op: OpDivu, Rd: 22, Rs1: 23, Rs2: 24},
		{Op: OpRemw, Rd: 25, Rs1: 26, Rs2: 27},
		{Op: OpFld, Rd: 1, Rs1: 2, Imm: 24},
		{Op: OpFsd, Rs1: 3, Rs2: 4, Imm: -24},
		{Op: OpFdivD, Rd: 5, Rs1: 6, Rs2: 7},
		{Op: OpFmvXD, Rd: 8, Rs1: 9},
		{Op: OpFmvDX, Rd: 10, Rs1: 11},
		{Op: OpEcall},
		{Op: OpEbreak},
		{Op: OpMret},
		{Op: OpCsrrw, Rd: 1, Rs1: 2, Imm: 0x305},
	}
	for _, in := range cases {
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in.Op, err)
		}
		got := Decode(w)
		if got.Op != in.Op || got.Rd != in.Rd || got.Rs1 != in.Rs1 || got.Rs2 != in.Rs2 || got.Imm != in.Imm {
			t.Errorf("round trip %v: got %+v want %+v (word %#08x)", in.Op, got, in, w)
		}
	}
}

func TestDecodeIllegal(t *testing.T) {
	for _, w := range []uint32{0x00000000, 0xffffffff, 0x0000007f} {
		if d := Decode(w); d.Op != OpInvalid {
			t.Errorf("Decode(%#08x) = %v, want invalid", w, d.Op)
		}
	}
}

func TestNop(t *testing.T) {
	if w := MustEncode(Nop()); w != NopWord {
		t.Fatalf("nop encodes to %#08x, want %#08x", w, NopWord)
	}
	d := Decode(NopWord)
	if d.Op != OpAddi || d.Rd != 0 || d.Rs1 != 0 || d.Imm != 0 {
		t.Fatalf("nop decodes to %+v", d)
	}
}

// Property: every encodable branch offset round-trips through B-format.
func TestBranchOffsetProperty(t *testing.T) {
	f := func(raw int16) bool {
		off := (int64(raw) % 4096) &^ 1 // even offsets within B-format range
		in := Inst{Op: OpBne, Rs1: 3, Rs2: 7, Imm: off}
		w, err := Encode(in)
		if err != nil {
			return false
		}
		return Decode(w).Imm == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: random 32-bit words never panic the decoder, and decodable words
// re-encode to a word that decodes identically.
func TestDecodeTotality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		w := rng.Uint32()
		d := Decode(w)
		if d.Op == OpInvalid {
			continue
		}
		w2, err := Encode(d)
		if err != nil {
			t.Fatalf("decodable %#08x (%v) fails to re-encode: %v", w, d.Op, err)
		}
		d2 := Decode(w2)
		if d2.Op != d.Op || d2.Rd != d.Rd || d2.Rs1 != d.Rs1 || d2.Rs2 != d.Rs2 || d2.Imm != d.Imm {
			t.Fatalf("%#08x: decode/encode/decode mismatch: %+v vs %+v", w, d, d2)
		}
	}
}

func TestRegNames(t *testing.T) {
	if RegNum("a0") != 10 || RegNum("x10") != 10 || RegNum("zero") != 0 || RegNum("fp") != 8 {
		t.Fatal("integer register lookup broken")
	}
	if FRegNum("fa0") != 10 || FRegNum("f31") != 31 {
		t.Fatal("fp register lookup broken")
	}
	if RegNum("q9") != -1 {
		t.Fatal("bogus register accepted")
	}
	if RegName(10) != "a0" || FRegName(8) != "fs0" {
		t.Fatal("register naming broken")
	}
}

// TestOpTableWellFormed: every row's match lies inside its mask, no word
// meets two rows' mask and match (Decode takes the first), and a row's
// operand fields lie outside its mask, so an instruction decodes as itself
// whatever its operands.
func TestOpTableWellFormed(t *testing.T) {
	for a := OpInvalid + 1; a < opCount; a++ {
		ra := &ops[a]
		if ra.match&^ra.mask != 0 {
			t.Errorf("%s: match %#08x has bits outside mask %#08x", ra.name, ra.match, ra.mask)
		}
		for b := a + 1; b < opCount; b++ {
			if rb := &ops[b]; (ra.match^rb.match)&ra.mask&rb.mask == 0 {
				t.Errorf("%s and %s match the same words", ra.name, rb.name)
			}
		}
		for _, in := range []Inst{{Op: a}, {Op: a, Rd: 31, Rs1: 31, Rs2: 31, Imm: -1}} {
			if got := Decode(MustEncode(in)).Op; got != a {
				t.Errorf("%s with operands %+v decodes as %v", ra.name, in, got)
			}
		}
	}
}
