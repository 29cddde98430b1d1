package isa

import (
	"fmt"
	"strconv"
)

// Disasm renders a decoded instruction in conventional assembly syntax: its
// mnemonic and the operands its row's syntax names, in that order.
func Disasm(i Inst) string {
	if i.Op == OpInvalid {
		return fmt.Sprintf(".illegal %#08x", i.Raw)
	}
	r := i.Op.row()
	b := make([]byte, 0, 32)
	b = append(b, r.name...)
	for k, a := range r.args {
		if k == 0 {
			b = append(b, ' ')
		} else {
			b = append(b, ", "...)
		}
		o := &operands[a]
		switch {
		case o.imm == immNone:
			b = append(b, regName(i, o.field, o.fp)...)
		case o.field == fieldRs1: // imm(rs1)
			b = fmt.Appendf(b, "%d(%s)", i.Imm, RegName(i.Rs1))
		case o.imm == immU:
			b = fmt.Appendf(b, "%#x", uint64(i.Imm)>>12&0xfffff)
		case o.imm == immCSR:
			b = fmt.Appendf(b, "%#x", i.Imm)
		default:
			b = strconv.AppendInt(b, i.Imm, 10)
		}
	}
	return string(b)
}

// regName names the register in one of the instruction's fields.
func regName(i Inst, field uint8, fp bool) string {
	r := i.Rs2
	switch field {
	case fieldRd:
		r = i.Rd
	case fieldRs1:
		r = i.Rs1
	}
	if fp {
		return FRegName(r)
	}
	return RegName(r)
}
