package isa

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"
)

// decodeGoldenPath holds one SHA-256 per 32-bit major opcode: every word
// with that opcode, Decode's fields and Disasm's text for each. It pins the
// decoder and the disassembler, so a change to how either reads an
// instruction must leave every line unchanged.
const decodeGoldenPath = "testdata/decode.golden"

// goldenRegPatterns are the (rd, rs1) pairs swept with each (opcode,
// funct3, funct7, rs2): each register field takes zero and non-zero values.
var goldenRegPatterns = [...][2]uint32{{0, 31}, {1, 0}, {31, 1}}

// goldenSystemWords are the fixed-encoding words the sweep misses, since
// they need rd = rs1 = 0.
var goldenSystemWords = [...]uint32{0x00000073, 0x00100073, 0x30200073}

// hashDecoded folds one word's decoding and disassembly.
func hashDecoded(h hash.Hash, buf []byte, w uint32) []byte {
	d := Decode(w)
	buf = binary.LittleEndian.AppendUint32(buf, w)
	buf = binary.LittleEndian.AppendUint32(buf, d.Raw)
	buf = append(buf, byte(d.Op), byte(d.Rd), byte(d.Rs1), byte(d.Rs2))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Imm))
	buf = append(buf, Disasm(d)...)
	buf = append(buf, '\n')
	if len(buf) >= 1<<16 {
		h.Write(buf)
		buf = buf[:0]
	}
	return buf
}

// decodeGoldenLines renders one line per major opcode (the 32 with low bits
// 11, since every other word is a compressed encoding this ISA lacks) and
// one for the system words.
func decodeGoldenLines() []string {
	var out []string
	buf := make([]byte, 0, 1<<16+256)
	for opc := uint32(3); opc < 128; opc += 4 {
		h := sha256.New()
		buf = buf[:0]
		for f3 := uint32(0); f3 < 8; f3++ {
			for f7 := uint32(0); f7 < 128; f7++ {
				for rs2 := uint32(0); rs2 < 32; rs2++ {
					for _, p := range goldenRegPatterns {
						w := opc | p[0]<<7 | f3<<12 | p[1]<<15 | rs2<<20 | f7<<25
						buf = hashDecoded(h, buf, w)
					}
				}
			}
		}
		h.Write(buf)
		out = append(out, fmt.Sprintf("opcode 0x%02x %x", opc, h.Sum(nil)))
	}
	h := sha256.New()
	buf = buf[:0]
	for _, w := range goldenSystemWords {
		buf = hashDecoded(h, buf, w)
	}
	h.Write(buf)
	return append(out, fmt.Sprintf("system-words %x", h.Sum(nil)))
}

// TestDecodeGolden pins Decode and Disasm over every (opcode, funct3,
// funct7, rs2) with three (rd, rs1) patterns: 3,145,728 words, plus ecall,
// ebreak and mret.
func TestDecodeGolden(t *testing.T) {
	f, err := os.Open(decodeGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := decodeGoldenLines()
	if len(got) != len(want) {
		t.Fatalf("%d golden lines, file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("golden mismatch:\n  got  %s\n  want %s", got[i], want[i])
		}
	}
}

// benchWords is a mixed fetch stream: one word of each instruction class,
// a wide-immediate form of each format, and an illegal word.
var benchWords = []uint32{
	0x007302b3, // add t0, t1, t2
	0x40730333, // sub t1, t1, t2
	0xffc58513, // addi a0, a1, -4
	0x00629293, // slli t0, t0, 6
	0x01013283, // ld t0, 16(sp)
	0xfe513c23, // sd t0, -8(sp)
	0x00208463, // beq ra, sp, 8
	0xfc1ff0ef, // jal ra, -64
	0x00008067, // jalr zero, 0(ra)
	0x123452b7, // lui t0, 0x12345
	0x02b50533, // mul a0, a0, a1
	0x02b545b3, // div a1, a0, a1
	0x1aa57553, // fdiv.d fa0, fa0, fa0
	0x30529073, // csrrw zero, 0x305, t0
	0x00000073, // ecall
	0x00000000, // illegal
}

// TestDecodeMemo checks the memo against Decode on a word stream that
// makes slots change hands: the zero word on an empty memo, the nop, the
// system words and every bench word, each alternating with another word
// that maps to its slot, then a pseudo-random stream that revisits words.
func TestDecodeMemo(t *testing.T) {
	var m DecodeMemo
	words := []uint32{0, 0}
	for _, w := range append(append([]uint32{NopWord}, goldenSystemWords[:]...), benchWords...) {
		rival := w + 1
		for m.Decode(rival) != m.Decode(w) {
			rival++
		}
		words = append(words, w, rival, w, w, rival, rival, w)
	}
	x := uint32(2463534242)
	for i := 0; i < 200_000; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		words = append(words, x, words[int(x)%len(words)])
	}
	for _, w := range words {
		if got, want := *m.Decode(w), Decode(w); got != want {
			t.Fatalf("memo decodes %#08x as %+v, want %+v", w, got, want)
		}
	}
}

// BenchmarkDecode times Decode on the mixed stream and on the canonical
// nop, and the memo on the mixed stream with each word repeated 16 times,
// as a loop refetches its body; run with -benchmem.
func BenchmarkDecode(b *testing.B) {
	b.Run("mixed", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			Decode(benchWords[i%len(benchWords)])
		}
	})
	b.Run("nop", func(b *testing.B) {
		for b.Loop() {
			Decode(NopWord)
		}
	})
	b.Run("memo", func(b *testing.B) {
		var m DecodeMemo
		for i := 0; b.Loop(); i++ {
			m.Decode(benchWords[i/16%len(benchWords)])
		}
	})
}
