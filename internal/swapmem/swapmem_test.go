package swapmem

import (
	"testing"

	"dejavuzz/internal/isa"
	"dejavuzz/internal/mem"
	"dejavuzz/internal/uarch"
)

var secret = []byte{1, 2, 3, 4, 5, 6, 7, 8}

func TestLayout(t *testing.T) {
	sp := NewSpace(secret)
	for _, name := range []string{"shared", "dedicated", "guardacc", "guardpage", "swap", "data"} {
		if sp.RegionByName(name) == nil {
			t.Errorf("region %q missing", name)
		}
	}
	// The secret is planted and tainted.
	v, tt := sp.Read64(SecretAddr)
	if v != 0x0807060504030201 {
		t.Fatalf("secret = %#x", v)
	}
	if tt != ^uint64(0) {
		t.Fatalf("secret taint = %#x", tt)
	}
	// Guard regions raise the right fault kinds.
	if err := sp.Check(GuardAccBase, 8, mem.AccessLoad); err.(*mem.Fault).Page {
		t.Error("guardacc raises page fault")
	}
	if err := sp.Check(GuardPageBase, 8, mem.AccessLoad); !err.(*mem.Fault).Page {
		t.Error("guardpage raises access fault")
	}
	// Firmware: swap_done is an ecall.
	b := sp.ReadRaw(SwapDoneAddr, 4)
	if got := isa.Decode(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24); got.Op != isa.OpEcall {
		t.Fatalf("swap_done holds %v", got.Op)
	}
}

func TestFlipSecret(t *testing.T) {
	f := FlipSecret(secret)
	for i := range secret {
		if f[i] != ^secret[i] {
			t.Fatalf("flip[%d] = %#x", i, f[i])
		}
	}
}

func packetFrom(t *testing.T, name, src string) *Packet {
	t.Helper()
	return &Packet{Name: name, Kind: PacketTriggerTrain,
		Image: isa.MustAsm(SwapBase, src), Entry: SwapBase}
}

func TestRuntimeSwapsPackets(t *testing.T) {
	// Packet 1 writes 11 to data; packet 2 (at the same addresses!) writes
	// 22 elsewhere. Both must execute in order.
	p1 := packetFrom(t, "p1", `
		li t0, 0x8000
		li t1, 11
		sd t1, 0(t0)
		ecall
	`)
	p2 := packetFrom(t, "p2", `
		li t0, 0x8008
		li t1, 22
		sd t1, 0(t0)
		ecall
	`)
	sched := &Schedule{}
	sched.Append(p1)
	sched.Append(p2)

	sp := NewSpace(secret)
	c := uarch.NewCore(uarch.BOOMConfig(), sp, uarch.IFTOff)
	rt := NewRuntime(c, sp, sched)
	rt.Start()
	c.Run(5000)

	if !c.Halted {
		t.Fatal("did not halt")
	}
	if v, _ := sp.Read64(0x8000); v != 11 {
		t.Fatalf("packet 1 effect: %d", v)
	}
	if v, _ := sp.Read64(0x8008); v != 22 {
		t.Fatalf("packet 2 effect: %d", v)
	}
	if rt.Traps != 2 {
		t.Fatalf("traps = %d, want 2", rt.Traps)
	}
	if len(rt.LoadCycles) != 2 {
		t.Fatalf("load cycles = %v", rt.LoadCycles)
	}
	if rt.idx != len(sched.Steps) {
		t.Fatalf("%d of %d packets scheduled", rt.idx, len(sched.Steps))
	}
}

func TestPermUpdateBetweenPackets(t *testing.T) {
	// Packet 1 reads the secret legally; packet 2 runs after revocation and
	// must fault.
	p1 := packetFrom(t, "warm", `
		li t0, 0x2000
		ld a0, 0(t0)
		ecall
	`)
	p2 := packetFrom(t, "transient", `
		li t0, 0x2000
		ld a1, 0(t0)
		ecall
	`)
	sched := &Schedule{}
	sched.Append(p1)
	sched.AppendWithPerm(p2, PermUpdate{Region: "dedicated", Perm: 0})

	sp := NewSpace(secret)
	c := uarch.NewCore(uarch.BOOMConfig(), sp, uarch.IFTOff)
	rt := NewRuntime(c, sp, sched)
	rt.Start()
	c.Run(5000)

	if rt.ExcTraps != 1 {
		t.Fatalf("exception traps = %d, want 1 (the revoked secret load)", rt.ExcTraps)
	}
	if a0, _ := c.ArchReg(isa.RegA0); a0 != 0x0807060504030201 {
		t.Fatalf("legal read got %#x", a0)
	}
}

func TestScheduleEditing(t *testing.T) {
	p1 := packetFrom(t, "a", "ecall")
	p2 := packetFrom(t, "b", "ecall")
	p3 := packetFrom(t, "c", "nop\necall")
	p3.Kind = PacketTransient

	s := &Schedule{}
	s.Append(p1)
	s.Append(p2)
	s.Append(p3)

	c := s.Clone()
	c.Steps[0].Packet = p3
	if s.Steps[0].Packet != p1 {
		t.Fatal("Clone aliases steps")
	}
}

func TestICacheFlushedOnSwap(t *testing.T) {
	// Two packets with identical addresses but different code: without the
	// icache flush the second packet would execute stale instructions.
	p1 := packetFrom(t, "p1", `
		li a0, 1
		ecall
	`)
	p2 := packetFrom(t, "p2", `
		li a0, 2
		ecall
	`)
	sched := &Schedule{}
	sched.Append(p1)
	sched.Append(p2)

	sp := NewSpace(secret)
	c := uarch.NewCore(uarch.BOOMConfig(), sp, uarch.IFTOff)
	rt := NewRuntime(c, sp, sched)
	rt.Start()
	c.Run(5000)
	if a0, _ := c.ArchReg(isa.RegA0); a0 != 2 {
		t.Fatalf("a0 = %d: stale icache content executed", a0)
	}
}

func TestPacketKindStrings(t *testing.T) {
	if PacketTriggerTrain.String() != "trigger-train" ||
		PacketWindowTrain.String() != "window-train" ||
		PacketTransient.String() != "transient" {
		t.Fatal("PacketKind strings wrong")
	}
}
