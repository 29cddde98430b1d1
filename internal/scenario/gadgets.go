package scenario

import (
	"fmt"
	"math/rand"
	"strings"

	"dejavuzz/internal/isa"
	"dejavuzz/internal/swapmem"
)

// frag lowers constant assembly lines to a typed fragment. Fragment tables
// call it once, at package init; builds only append the items.
func frag(lines ...string) []isa.Item {
	return isa.MustParse(strings.Join(lines, "\n"))
}

// item lowers one constant assembly line (an instruction or a label) to
// its item.
func item(line string) isa.Item {
	items := frag(line)
	if len(items) != 1 {
		panic(fmt.Sprintf("scenario: %q lowers to %d items, want 1", line, len(items)))
	}
	return items[0]
}

// encodeGadgets is the shared secret-encoding gadget table families without
// a dedicated encoder draw from. Index order is part of the mutation
// surface (Params.Encoder pins one gadget), so entries are append-only.
var encodeGadgets = [][]isa.Item{
	frag( // dcache encode: classic secret-indexed load
		"andi s1, s0, 0x3f",
		"slli s1, s1, 6",
		fmt.Sprintf("li t1, %#x", swapmem.DataBase+0x1000),
		"add t1, t1, s1",
		"ld t2, 0(t1)",
	),
	frag( // arithmetic propagation
		"add t3, s0, s0",
		"xor t4, t3, s0",
		"mul t5, t4, t3",
	),
	frag( // secret-dependent branch (control-flow encode)
		"andi s1, s0, 1",
		"beq s1, zero, 8",
		"add t3, t3, t3",
	),
	frag( // FPU port contention (Spectre-Rewind shape)
		"fmv.d.x fa0, s0",
		"fdiv.d fa1, fa0, fa0",
	),
	frag( // store encode
		fmt.Sprintf("li t1, %#x", swapmem.DataBase+0x2000),
		"andi s1, s0, 0x3f",
		"slli s1, s1, 3",
		"add t1, t1, s1",
		"sd s0, 0(t1)",
	),
	frag( // load write-back port pressure (Spectre-Reload shape)
		fmt.Sprintf("li t1, %#x", swapmem.DataBase+0x80),
		"ld t2, 0(t1)",
		"ld t3, 8(t1)",
		"ld t4, 16(t1)",
		"ld t5, 24(t1)",
	),
	frag( // secret-dependent call: corrupts RAS/BTB (Phantom shapes)
		"auipc t4, 0",
		"andi s1, s0, 1",
		"slli s1, s1, 3",
		"add t4, t4, s1",
		"jalr ra, 28(t4)",
		"nop",
		"nop",
	),
	frag( // secret-dependent far jump: icache fill (Spectre-Refetch shape)
		fmt.Sprintf("li t4, %#x", swapmem.SharedBase+0x400),
		"andi s1, s0, 1",
		"slli s1, s1, 6",
		"add t4, t4, s1",
		"jr t4",
	),
}

// NumEncoders is the shared gadget table's size — the Params.Encoder
// selector ranges over [0, NumEncoders] (0 draws per op).
func NumEncoders() int { return len(encodeGadgets) }

// sharedEncode appends the Params' encode block drawn from the shared
// gadget table: Encoder 0 draws one gadget per op from the derivation RNG
// (the historical behaviour), Encoder k>0 pins every op to gadget k-1 (the
// structured swap-encoder mutation target). The RNG draw happens even when
// pinned, keeping the derivation stream aligned across Encoder values.
func sharedEncode(dst []isa.Item, p Params, rng *rand.Rand) []isa.Item {
	for i := 0; i < p.EncodeOps; i++ {
		g := encodeGadgets[rng.Intn(len(encodeGadgets))]
		if p.Encoder > 0 && p.Encoder <= len(encodeGadgets) {
			g = encodeGadgets[p.Encoder-1]
		}
		dst = append(dst, g...)
	}
	return dst
}

// The two secret-access variants (addresses are layout constants).
var (
	accessMasked = frag(
		fmt.Sprintf("li t0, %#x", uint64(1)<<63|uint64(swapmem.SecretAddr)),
		"ld s0, 0(t0)",
	)
	accessPlain = frag(
		fmt.Sprintf("li t0, %#x", uint64(swapmem.SecretAddr)),
		"ld s0, 0(t0)",
	)
)

// defaultAccess appends the common secret-access block: load the secret
// into s0, optionally through a masked (illegal, MDS-style) address.
func defaultAccess(dst []isa.Item, p Params) []isa.Item {
	if p.MaskHigh {
		return append(dst, accessMasked...)
	}
	return append(dst, accessPlain...)
}
