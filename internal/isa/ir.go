package isa

import "fmt"

// The typed instruction IR. A fragment is a []Item: instructions, labels,
// branches and jumps to labels, and the pseudo-instructions stimulus
// builders use. Assemble sizes a fragment, resolves its labels and encodes
// it. The text assembler (Asm) is a front end that lowers source lines to
// the same items, so text and typed builds share one back end.
//
// Items are immutable values, so a fragment built once (typically at
// package init, from constant text through MustParse) is shared read-only
// by every build that appends it.

type itemKind uint8

const (
	itemNops   itemKind = iota // a run of n nops (the zero Item: no words)
	itemWord                   // one pre-encoded word
	itemLabel                  // defines label at the current address
	itemBranch                 // conditional branch to label
	itemJump                   // jal to label
	itemLi                     // li rd, imm
	itemCall                   // call: auipc t2 + jalr ra, to imm or label
	itemLa                     // la rd: auipc + addi, to imm or label
)

// Item is one element of a typed instruction fragment, built by the
// constructors below or by Parse. The zero Item occupies no words.
type Item struct {
	kind itemKind
	rd   uint8 // li/la destination register
	// line is the source line of a text-assembled item (0 for typed
	// items); back-end errors carry it as their asm:<line>: prefix.
	line int32
	// n is how many words the item occupies.
	n int32
	// word is the encoding of an itemWord, and the encoding with a zero
	// offset of an itemBranch or itemJump.
	word uint32
	// imm is an itemLi's value, or an itemCall or itemLa's absolute target
	// when label is empty.
	imm int64
	// label is an itemLabel's name, or the target of a branch, jump, call
	// or la.
	label string
}

// I returns the item for one fully specified instruction. It panics on an
// operation Encode cannot encode (a programming error in a fragment table).
func I(in Inst) Item {
	return Item{kind: itemWord, n: 1, word: MustEncode(in)}
}

// Word returns the item for a raw data or instruction word (.word).
func Word(w uint32) Item { return Item{kind: itemWord, n: 1, word: w} }

// Illegal returns the canonical undecodable instruction (.illegal).
func Illegal() Item { return Word(IllegalWord) }

// Label returns an item that names the address of the next item.
func Label(name string) Item { return Item{kind: itemLabel, label: name} }

// Branch returns a conditional branch (beq, bne, blt, ...) to a label.
func Branch(op Op, rs1, rs2 int, label string) Item {
	if op.Class() != ClassBranch {
		panic(fmt.Sprintf("isa: Branch with non-branch op %v", op))
	}
	return Item{kind: itemBranch, n: 1, word: MustEncode(Inst{Op: op, Rs1: rs1, Rs2: rs2}), label: label}
}

// Jal returns a jal rd to a label; Jal(RegZero, l) is `j l`.
func Jal(rd int, label string) Item {
	return Item{kind: itemJump, n: 1, word: MustEncode(Inst{Op: OpJal, Rd: rd}), label: label}
}

// Li returns the constant-materialisation pseudo-instruction `li rd, v`.
func Li(rd int, v int64) Item {
	return Item{kind: itemLi, rd: uint8(rd), n: int32(liWords(v)), imm: v}
}

// Call returns `call target` for an absolute target address: auipc t2 and
// jalr ra, PC-relative to where the item lands.
func Call(target uint64) Item { return Item{kind: itemCall, n: 2, imm: int64(target)} }

// CallLabel returns `call label`.
func CallLabel(label string) Item { return Item{kind: itemCall, n: 2, label: label} }

// La returns `la rd, label`: auipc rd and addi rd, rd to the label's
// address.
func La(rd int, label string) Item { return Item{kind: itemLa, rd: uint8(rd), n: 2, label: label} }

// Nops returns a run of n nops (alignment padding). A negative n is
// treated as zero.
func Nops(n int) Item { return Item{kind: itemNops, n: int32(max(n, 0))} }

// WordCount returns how many instruction words a fragment occupies.
func WordCount(items []Item) int {
	n := 0
	for i := range items {
		n += int(items[i].n)
	}
	return n
}

// Assemble encodes a typed fragment at base. Typed programs carry no label
// map (Program.Labels is nil).
func Assemble(base uint64, items []Item) (*Program, error) {
	return assemble(base, items, false)
}

// labelAddr is one placed label.
type labelAddr struct {
	name string
	addr uint64
}

// findLabel resolves a label by a linear scan: generated packets define a
// handful, text programs a few dozen at most.
func findLabel(labels []labelAddr, name string) (uint64, bool) {
	for _, l := range labels {
		if l.name == name {
			return l.addr, true
		}
	}
	return 0, false
}

// itemErr prefixes a back-end error with the item's source line, or its
// index in a typed fragment.
func itemErr(it *Item, idx int, format string, args ...any) error {
	if it.line > 0 {
		return fmt.Errorf("asm:%d: "+format, append([]any{it.line}, args...)...)
	}
	return fmt.Errorf("isa: item %d: "+format, append([]any{idx}, args...)...)
}

// assemble is the one back end: pass 1 sizes the items and places labels,
// pass 2 encodes. withLabels fills Program.Labels (the text front end
// reports them).
func assemble(base uint64, items []Item, withLabels bool) (*Program, error) {
	var buf [8]labelAddr
	labels := buf[:0]
	pc := base
	for i := range items {
		it := &items[i]
		if it.kind == itemLabel {
			if _, dup := findLabel(labels, it.label); dup {
				return nil, itemErr(it, i, "duplicate label %q", it.label)
			}
			labels = append(labels, labelAddr{it.label, pc})
		}
		pc += 4 * uint64(it.n)
	}

	words := make([]uint32, 0, (pc-base)/4)
	pc = base
	for i := range items {
		it := &items[i]
		switch it.kind {
		case itemWord:
			words = append(words, it.word)
		case itemNops:
			for k := int32(0); k < it.n; k++ {
				words = append(words, NopWord)
			}
		case itemLabel:
		case itemLi:
			var seq [24]Inst
			for _, in := range liSeqInto(seq[:0], int(it.rd), it.imm) {
				w, err := Encode(in)
				if err != nil {
					return nil, itemErr(it, i, "%v", err)
				}
				words = append(words, w)
			}
		default: // PC-relative: branch, jump, call, la
			target := it.imm
			if it.label != "" {
				a, ok := findLabel(labels, it.label)
				if !ok {
					return nil, itemErr(it, i, "undefined label %q", it.label)
				}
				target = int64(a)
			}
			delta := target - int64(pc)
			switch it.kind {
			case itemBranch:
				words = append(words, it.word|encB(delta))
			case itemJump:
				words = append(words, it.word|encJ(delta))
			case itemCall:
				lo := delta << 52 >> 52
				words = append(words,
					MustEncode(Inst{Op: OpAuipc, Rd: RegT2, Imm: delta - lo}),
					MustEncode(Inst{Op: OpJalr, Rd: RegRA, Rs1: RegT2, Imm: lo}))
			case itemLa:
				lo := delta << 52 >> 52
				rd := int(it.rd)
				words = append(words,
					MustEncode(Inst{Op: OpAuipc, Rd: rd, Imm: delta - lo}),
					MustEncode(Inst{Op: OpAddi, Rd: rd, Rs1: rd, Imm: lo}))
			}
		}
		pc += 4 * uint64(it.n)
	}
	p := &Program{Base: base, Words: words}
	if withLabels {
		p.Labels = make(map[string]uint64, len(labels))
		for _, l := range labels {
			p.Labels[l.name] = l.addr
		}
	}
	p.bytes = p.renderBytes()
	return p, nil
}
