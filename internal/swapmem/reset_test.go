package swapmem

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dejavuzz/internal/isa"
	"dejavuzz/internal/mem"
	"dejavuzz/internal/uarch"
)

// TestResetSpaceEquivalence pins ResetSpace against NewSpace: a canonical
// space that executed a schedule (packet images written, permissions
// revoked, data stored, taint spread) and is then ResetSpace'd with a new
// secret must be indistinguishable from NewSpace(secret).
func TestResetSpaceEquivalence(t *testing.T) {
	secretA := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	secretB := FlipSecret(secretA)

	used := NewSpace(secretA)
	// Pollute: packet image, data stores, taint spray, permission revocation.
	used.WriteRaw(SwapBase, bytes.Repeat([]byte{0xaa}, 256))
	used.WriteRaw(DataBase+0x100, []byte{9, 9, 9, 9})
	used.SetTaint(DataBase, 0x200, true)
	if err := used.SetPerm("dedicated", 0); err != nil {
		t.Fatal(err)
	}
	ResetSpace(used, secretB)

	fresh := NewSpace(secretB)
	for _, r := range fresh.Regions() {
		ur := used.RegionByName(r.Name)
		if ur == nil {
			t.Fatalf("region %q missing after reset", r.Name)
		}
		if ur.Perm != r.Perm {
			t.Errorf("region %q: perm %v, want %v", r.Name, ur.Perm, r.Perm)
		}
		fb := fresh.ReadRaw(r.Base, int(r.Size))
		ub := used.ReadRaw(r.Base, int(r.Size))
		if !bytes.Equal(fb, ub) {
			t.Errorf("region %q: bytes differ after reset", r.Name)
		}
		ft := fresh.TaintRaw(r.Base, int(r.Size))
		ut := used.TaintRaw(r.Base, int(r.Size))
		if !bytes.Equal(ft, ut) {
			t.Errorf("region %q: taint differs after reset", r.Name)
		}
	}
}

// TestRuntimeRebindEquivalence checks Rebind leaves a runtime in the state
// NewRuntime produces (counters zeroed, log truncated, hook attached).
func TestRuntimeRebindEquivalence(t *testing.T) {
	sp := NewSpace([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	c := uarch.NewCore(uarch.BOOMConfig(), sp, uarch.IFTOff)
	sched := &Schedule{}
	rt := NewRuntime(c, sp, sched)
	rt.Traps = 7
	rt.ExcTraps = 3
	rt.idx = 2
	rt.LoadCycles = append(rt.LoadCycles, 10, 20)

	sp2 := NewSpace([]byte{8, 7, 6, 5, 4, 3, 2, 1})
	c2 := uarch.NewCore(uarch.BOOMConfig(), sp2, uarch.IFTOff)
	sched2 := &Schedule{}
	rt.Rebind(c2, sp2, sched2)
	if rt.Space != sp2 || rt.Sched != sched2 || rt.Core != c2 {
		t.Fatal("rebind did not swap bindings")
	}
	if c2.TrapHook == nil {
		t.Fatal("rebind did not attach the trap hook")
	}
	if rt.Traps != 0 || rt.ExcTraps != 0 || rt.idx != 0 || len(rt.LoadCycles) != 0 {
		t.Fatalf("rebind left stale state: %+v", rt)
	}
}

// spaceOps applies a byte-coded sequence of mutations to a canonical space:
// raw and checked writes, 64-bit stores, taint changes, permission changes
// and swap clears. Addresses range over the whole layout and the unmapped
// pages around it, so writes straddle region edges and gaps. salt varies
// the written values, so two spaces fed the same ops diverge.
func spaceOps(t testing.TB, sp *mem.Space, ops []byte, salt byte) {
	names := []string{"shared", "dedicated", "swap", "guardacc", "guardpage", "data"}
	for len(ops) >= 5 {
		op, addr := ops[0]%6, uint64(binary.LittleEndian.Uint32(ops[1:5])%0x11000)
		ops = ops[5:]
		arg := byte(0)
		if len(ops) > 0 {
			arg, ops = ops[0], ops[1:]
		}
		v := uint64(arg^salt) * 0x0101010101010101
		switch op {
		case 0:
			sp.WriteRaw(addr, bytes.Repeat([]byte{arg ^ salt}, int(arg%48)))
		case 1:
			_ = sp.Write(addr, 1<<(arg%4), v, v>>3, mem.AccessStore)
		case 2:
			sp.Write64(addr, v, ^v)
		case 3:
			sp.SetTaint(addr, int(arg%40), arg&1 == 0)
		case 4:
			_ = sp.SetPerm(names[int(arg)%len(names)], mem.Perm(arg>>4)&7)
		case 5:
			ClearSwap(sp)
			if n := len(bytes.Trim(sp.ReadRaw(SwapBase, SwapSize), "\x00")); n != 0 {
				t.Fatalf("ClearSwap left %d swap bytes between non-zero ends", n)
			}
		}
	}
}

type lineDiff struct{ off, n int }

// fullLineDiff is the reference divergence scan: every line compared.
func fullLineDiff(a, b *mem.Space, r *mem.Region, line int) []lineDiff {
	var out []lineDiff
	ab, bb := a.ReadRaw(r.Base, int(r.Size)), b.ReadRaw(r.Base, int(r.Size))
	for off := 0; off < len(ab); off += line {
		end := min(off+line, len(ab))
		if bytes.Equal(ab[off:end], bb[off:end]) {
			continue
		}
		n := 0
		for i := off; i < end; i++ {
			if ab[i] != bb[i] {
				n++
			}
		}
		out = append(out, lineDiff{off, n})
	}
	return out
}

// FuzzResetSpace checks the dirty-page restore: after any sequence of
// mutations, ResetSpace must leave bytes, taint and permissions identical to
// NewSpace, and the divergence scan that skips pages clean in both spaces
// must agree with a full scan.
func FuzzResetSpace(f *testing.F) {
	f.Add([]byte{0, 0xf0, 0x3f, 0, 0, 40, 2, 0xfc, 0x1f, 0, 0, 0, 5, 0, 0, 0, 0, 0}, uint64(0xa53c960f11ee427b))
	f.Add([]byte{3, 0xfe, 0x7f, 0, 0, 12, 4, 0, 0, 0, 0, 0x10, 1, 0x00, 0x20, 0, 0, 3}, uint64(1))
	f.Add([]byte{0, 0x00, 0x10, 0x01, 0, 47, 2, 0xfd, 0xff, 0, 0, 9, 0, 0xf8, 0x0f, 0, 0, 30}, uint64(0))
	f.Fuzz(func(t *testing.T, ops []byte, seed uint64) {
		secret := binary.LittleEndian.AppendUint64(nil, seed)
		a, b := NewSpace(secret), NewSpace(secret)
		for round := 0; round < 2; round++ {
			spaceOps(t, a, ops, 0)
			spaceOps(t, b, ops[len(ops)/2:], 0x5a)
			for _, r := range a.Regions() {
				want := fullLineDiff(a, b, r, 64)
				var got []lineDiff
				mem.DiffLines(a, b, r.Base, 64, func(off, n int) { got = append(got, lineDiff{off, n}) })
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d, region %q: dirty-aware scan %v, full scan %v", round, r.Name, got, want)
				}
			}

			secret = FlipSecret(secret)
			ResetSpace(a, secret)
			ResetSpace(b, secret)
			fresh := NewSpace(secret)
			for _, sp := range []*mem.Space{a, b} {
				if !reflect.DeepEqual(dump(sp), dump(fresh)) {
					t.Fatalf("round %d: reset space differs from NewSpace", round)
				}
				if got := sp.DirtyBytes(); got != mem.PageSize {
					t.Fatalf("round %d: %d dirty bytes after reset, want the secret's page", round, got)
				}
			}
		}
	})
}

// dump returns every region's permission, bytes and taint, plus the
// unmapped pages around the layout.
func dump(sp *mem.Space) [][]byte {
	var out [][]byte
	for _, r := range sp.Regions() {
		out = append(out, []byte{byte(r.Perm)}, sp.ReadRaw(r.Base, int(r.Size)), sp.TaintRaw(r.Base, int(r.Size)))
	}
	return append(out, sp.ReadRaw(0, SharedBase), sp.ReadRaw(DataBase+DataSize, 0x1000))
}

// BenchmarkResetSpace times one simulation's worth of space traffic — a
// packet load, a few data stores and a permission revocation — followed by
// ResetSpace, and reports the bytes the reset restores per operation.
func BenchmarkResetSpace(b *testing.B) {
	sp := NewSpace(secret)
	step := Step{
		Packet:  &Packet{Name: "p", Image: isa.MustAsm(SwapBase, strings.Repeat("addi a0, a0, 1\n", 96)+"ecall"), Entry: SwapBase},
		PrePerm: []PermUpdate{{Region: "dedicated", Perm: 0}},
	}
	restored := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := LoadPacket(sp, step); err != nil {
			b.Fatal(err)
		}
		for j := uint64(0); j < 4; j++ {
			sp.Write64(DataBase+0x400*j, j, ^j)
		}
		restored += sp.DirtyBytes()
		ResetSpace(sp, secret)
	}
	b.ReportMetric(float64(restored)/float64(b.N), "restored-B/op")
}

// TestConcurrentResets builds, runs and resets spaces, cores and runtimes on
// several goroutines at once. All of them restore from the same pristine
// images; under -race this pins that those images are only ever read.
func TestConcurrentResets(t *testing.T) {
	p1 := &Packet{Name: "p1", Image: isa.MustAsm(SwapBase, "li t0, 0x8000\nli t1, 11\nsd t1, 0(t0)\necall"), Entry: SwapBase}
	p2 := &Packet{Name: "p2", Image: isa.MustAsm(SwapBase, "li t0, 0x2000\nld a0, 0(t0)\necall"), Entry: SwapBase}
	sched := &Schedule{}
	sched.Append(p1)
	sched.Append(p2)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(kind uarch.CoreKind) {
			defer wg.Done()
			cfg := uarch.ConfigFor(kind)
			sp := NewSpace(secret)
			c := uarch.NewCore(cfg, sp, uarch.IFTCellIFT)
			rt := NewRuntime(c, sp, sched)
			for i := 0; i < 20; i++ {
				ResetSpace(sp, secret)
				c.Reset(cfg, sp, uarch.IFTCellIFT)
				rt.Rebind(c, sp, sched)
				rt.Start()
				c.Run(5000)
				if v, _ := sp.Read64(0x8000); v != 11 || rt.Traps != 2 {
					t.Errorf("%v run %d: store %d, traps %d", kind, i, v, rt.Traps)
					return
				}
				if a0, tt := c.ArchReg(isa.RegA0); a0 != 0x0807060504030201 || tt == 0 {
					t.Errorf("%v run %d: secret load %#x/%#x", kind, i, a0, tt)
					return
				}
			}
		}(uarch.CoreKind(g % 2))
	}
	wg.Wait()
}
