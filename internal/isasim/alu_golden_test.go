package isasim

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"

	"dejavuzz/internal/isa"
)

// aluGoldenPath holds one SHA-256 per operation that computes on registers:
// every row of the instruction table that is neither a memory nor a system
// operation. Each digests Exec's destination value, next pc and both
// register files over a fixed set of operands, immediates and register
// patterns. The out-of-order core computes with the same semantics, so the
// co-simulation tests cannot see a mistake in them; this file can.
const aluGoldenPath = "testdata/alu.golden"

// aluValues are the source operands: small integers, the int64 extremes,
// the shift amounts either side of 32 and 64, and IEEE-754 bit patterns
// (+0 is 0, -0 is int64 min, ±Inf, a quiet NaN, the largest subnormal and
// 1.0).
var aluValues = [...]uint64{
	0, 1, ^uint64(0), 1 << 63, 1<<63 - 1, 31, 32, 63,
	0x7ff0000000000000, 0xfff0000000000000, 0x7ff8000000000000,
	0x000fffffffffffff, 0x3ff0000000000000,
}

// aluImms are immediate candidates; an operation keeps those its encoding
// holds exactly (Decode(Encode) returns them), so each format sees its own
// edges: the I range, both shift widths, branch and jump offsets (4 is a
// taken branch that lands on the fall-through pc) and upper immediates.
var aluImms = [...]int64{
	0, 1, -1, 4, -4, 8, 31, 32, 63, 2047, -2048, 4094, -4096,
	1<<20 - 2, -1 << 20, 0x12345000, 0x7ffff000, -0x80000000, -4096 << 8,
}

// aluRegs are the register numbers each of rd, rs1 and rs2 takes: x0 (or
// f0), and two ordinary registers so that rs1 == rs2 and rd == rs1 occur.
var aluRegs = [...]int{0, 6, 7}

// aluPC is the pc every case executes at.
const aluPC = 0x80001000

// aluOps lists the register-computing operations in table order.
func aluOps() []isa.Op {
	var out []isa.Op
	for op := isa.OpInvalid + 1; op.Class() != isa.ClassInvalid; op++ {
		switch op.Class() {
		case isa.ClassLoad, isa.ClassStore, isa.ClassSystem:
			continue
		}
		out = append(out, op)
	}
	return out
}

// aluCases calls fn with every instruction of op the table can encode from
// the register patterns and immediates above, and every operand pair it
// reads.
func aluCases(op isa.Op, fn func(in isa.Inst, a, b uint64)) {
	seen := map[isa.Inst]bool{}
	for _, rd := range aluRegs {
		for _, rs1 := range aluRegs {
			for _, rs2 := range aluRegs {
				for _, imm := range aluImms {
					in := isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm}
					w, err := isa.Encode(in)
					if err != nil {
						panic(err)
					}
					in.Raw = w
					if isa.Decode(w) != in || seen[in] {
						continue // a field the operation lacks, or a duplicate
					}
					seen[in] = true
					r1, r2 := in.Sources()
					as, bs := aluValues[:1], aluValues[:1]
					if r1 {
						as = aluValues[:]
					}
					if r2 {
						bs = aluValues[:]
					}
					for _, a := range as {
						for _, b := range bs {
							fn(in, a, b)
						}
					}
				}
			}
		}
	}
}

// aluExec runs one case on a fresh simulator: every register holds a
// distinct filler, rs2 then rs1 take b and a (so rs1 == rs2 reads a), and
// x0 stays zero.
func aluExec(in isa.Inst, a, b uint64) *Sim {
	s := &Sim{PC: aluPC}
	for r := 1; r < 32; r++ {
		s.X[r] = 0x0101010101010101 * uint64(r)
		s.F[r] = 0x4000000000000000 | uint64(r)<<40
	}
	fp1, fp2 := in.FPSources()
	r1, r2 := in.Sources()
	set := func(reg int, fp bool, v uint64) {
		switch {
		case fp:
			s.F[reg] = v
		case reg != 0:
			s.X[reg] = v
		}
	}
	if r2 {
		set(in.Rs2, fp2, b)
	}
	if r1 {
		set(in.Rs1, fp1, a)
	}
	s.Exec(in)
	return s
}

// aluGoldenLines renders one line per operation.
func aluGoldenLines() []string {
	var out []string
	buf := make([]byte, 0, 1024)
	for _, op := range aluOps() {
		h := sha256.New()
		n := 0
		aluCases(op, func(in isa.Inst, a, b uint64) {
			s := aluExec(in, a, b)
			dest := s.X[in.Rd]
			if in.FPDest() {
				dest = s.F[in.Rd]
			}
			buf = binary.LittleEndian.AppendUint32(buf[:0], in.Raw)
			for _, v := range [...]uint64{a, b, dest, s.PC, s.Instret} {
				buf = binary.LittleEndian.AppendUint64(buf, v)
			}
			for r := range 32 {
				buf = binary.LittleEndian.AppendUint64(buf, s.X[r])
				buf = binary.LittleEndian.AppendUint64(buf, s.F[r])
			}
			h.Write(buf)
			n++
		})
		out = append(out, fmt.Sprintf("%s %d %x", op, n, h.Sum(nil)))
	}
	return out
}

// TestALUGolden pins the register-to-register semantics: each operation's
// case count and digest must match the golden file line for line.
func TestALUGolden(t *testing.T) {
	f, err := os.Open(aluGoldenPath)
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
	got := aluGoldenLines()
	if len(got) != len(want) {
		t.Fatalf("%d golden lines, file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("golden mismatch:\n  got  %s\n  want %s", got[i], want[i])
		}
	}
}

// TestFPOperandsOnlyInFPClasses pins what Exec relies on when it reads the
// integer register file for every other class: among the operations
// Compute defines, only the FPU and FDiv classes name a floating-point
// register.
func TestFPOperandsOnlyInFPClasses(t *testing.T) {
	for _, op := range aluOps() {
		in := isa.Inst{Op: op}
		fp1, fp2 := in.FPSources()
		named := fp1 || fp2 || in.FPDest()
		fpClass := op.Class() == isa.ClassFPU || op.Class() == isa.ClassFDiv
		if named && !fpClass {
			t.Errorf("%v (class %d) names a floating-point register", op, op.Class())
		}
	}
}
