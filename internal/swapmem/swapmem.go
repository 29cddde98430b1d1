// Package swapmem implements DejaVuzz's dynamic swappable memory (swapMem):
// the isolation primitive that time-shares one address space between
// instruction sequences with different semantics.
//
// The layout follows the paper's Figure 4: a shared region (execution
// environment: entry stub and trap-handled swap scheduling), a per-DUT
// dedicated region (secrets and mutable operands), a swappable region that
// holds one instruction packet at a time, and a plain data region used by
// secret-encoding gadgets.
//
// Packets are swapped at runtime: each packet ends by raising an exception
// (ecall), the trap hook flushes the instruction cache, loads the next
// packet's image into the swappable region and redirects the core to its
// entry — all without executing architectural instructions that would
// pollute memory-related training state.
package swapmem

import (
	"fmt"
	"sync"

	"dejavuzz/internal/isa"
	"dejavuzz/internal/isasim"
	"dejavuzz/internal/mem"
	"dejavuzz/internal/uarch"
)

// Canonical layout addresses.
const (
	SharedBase    = 0x0000_1000
	SharedSize    = 0x1000
	DedicatedBase = 0x0000_2000
	DedicatedSize = 0x1000
	SwapBase      = 0x0000_4000
	SwapSize      = 0x4000
	DataBase      = 0x0000_8000
	DataSize      = 0x8000

	// GuardAccBase is an unmapped-permission region raising ACCESS faults.
	GuardAccBase = 0x0000_3000
	GuardAccSize = 0x800
	// GuardPageBase raises PAGE faults.
	GuardPageBase = 0x0000_3800
	GuardPageSize = 0x800

	// SecretAddr is where the per-DUT secret lives (dedicated region start).
	SecretAddr = DedicatedBase
	// OperandAddr holds mutable operands the generator patches per run.
	OperandAddr = DedicatedBase + 0x100
	// SwapDoneAddr is the shared-region routine that ends a packet (ecall).
	SwapDoneAddr = SharedBase
)

// PacketKind classifies swap packets for scheduling and reporting.
type PacketKind int

const (
	PacketTriggerTrain PacketKind = iota
	PacketWindowTrain
	PacketTransient
)

func (k PacketKind) String() string {
	switch k {
	case PacketTriggerTrain:
		return "trigger-train"
	case PacketWindowTrain:
		return "window-train"
	case PacketTransient:
		return "transient"
	}
	return "packet"
}

// Packet is one swappable instruction sequence.
type Packet struct {
	Name  string
	Kind  PacketKind
	Image *isa.Program // assembled at SwapBase (or an offset inside the region)
	Entry uint64
	// TrainInsts counts non-padding instructions for the Table 3 overhead
	// accounting; PadInsts counts alignment nops.
	TrainInsts int
	PadInsts   int
}

// InstCount returns total instructions in the packet image.
func (p *Packet) InstCount() int { return len(p.Image.Words) }

// PermUpdate describes a permission change applied between packets (the
// paper's "updates sensitive data permissions" step before the transient
// packet executes).
type PermUpdate struct {
	Region string
	Perm   mem.Perm
}

// Step is one swap-schedule element: run a packet, optionally after applying
// permission updates.
type Step struct {
	Packet  *Packet
	PrePerm []PermUpdate
}

// Schedule is the ordered packet list for one stimulus.
type Schedule struct {
	Steps []Step
}

// Append adds a packet without permission updates.
func (s *Schedule) Append(p *Packet) { s.Steps = append(s.Steps, Step{Packet: p}) }

// AppendWithPerm adds a packet preceded by permission updates.
func (s *Schedule) AppendWithPerm(p *Packet, perms ...PermUpdate) {
	s.Steps = append(s.Steps, Step{Packet: p, PrePerm: perms})
}

// Clone copies the schedule (packets are shared, steps copied).
func (s *Schedule) Clone() *Schedule {
	n := &Schedule{Steps: make([]Step, len(s.Steps))}
	copy(n.Steps, s.Steps)
	return n
}

// newLayout allocates the canonical swapMem regions, all bytes zero.
func newLayout() *mem.Space {
	sp := mem.NewSpace()
	sp.MustAddRegion(mem.Region{Name: "shared", Base: SharedBase, Size: SharedSize,
		Perm: mem.PermRead | mem.PermExec})
	sp.MustAddRegion(mem.Region{Name: "dedicated", Base: DedicatedBase, Size: DedicatedSize,
		Perm: mem.PermRead | mem.PermWrite})
	sp.MustAddRegion(mem.Region{Name: "swap", Base: SwapBase, Size: SwapSize,
		Perm: mem.PermRead | mem.PermWrite | mem.PermExec})
	sp.MustAddRegion(mem.Region{Name: "guardacc", Base: GuardAccBase, Size: GuardAccSize,
		Perm: 0, Fault: mem.FaultAccess})
	sp.MustAddRegion(mem.Region{Name: "guardpage", Base: GuardPageBase, Size: GuardPageSize,
		Perm: 0, Fault: mem.FaultPage})
	sp.MustAddRegion(mem.Region{Name: "data", Base: DataBase, Size: DataSize,
		Perm: mem.PermRead | mem.PermWrite})
	return sp
}

// pristine is the canonical post-firmware image: the layout with the
// firmware installed and no secret. It is built once per process and only
// ever read; every canonical space restores from it.
var pristine = sync.OnceValue(func() *mem.Space {
	sp := newLayout()
	installFirmware(sp)
	return sp
})

// NewSpace builds the canonical swapMem address space with a given secret.
// Secret bytes are taint sources.
func NewSpace(secret []byte) *mem.Space {
	sp := newLayout()
	ResetSpace(sp, secret)
	return sp
}

// ResetSpace reinitialises a canonical swapMem space in place for a new run
// with a (possibly different) secret: it restores the pristine image, which
// undoes every write and every PermUpdate a previous schedule made, and
// plants the secret. Only the pages written since the last reset are
// copied back. The result is byte-identical to NewSpace(secret) — the
// per-shard execution contexts in internal/core rely on this equivalence to
// reuse one allocation across a whole campaign.
func ResetSpace(sp *mem.Space, secret []byte) {
	sp.Restore(pristine())
	sp.WriteRaw(SecretAddr, secret)
	sp.SetTaint(SecretAddr, len(secret), true)
}

// Firmware images are identical for every space; assemble them once.
var (
	fwSwapDone = isa.MustAsm(SharedBase, "swap_done:\necall").Bytes()
	// Nop filler with a trailing ecall every 64 bytes so transient fetches
	// into the shared region decode cleanly.
	fwFiller = isa.MustAsm(SharedBase+0x100, `
		nop
		nop
		nop
		ecall
	`).Bytes()
)

// installFirmware writes the shared-region runtime stubs: the swap_done
// packet terminator at SharedBase and a page of executable nop filler used
// as a landing pad by icache-encoding gadgets.
func installFirmware(sp *mem.Space) {
	sp.WriteRaw(SharedBase, fwSwapDone)
	for off := uint64(0x100); off+16 <= SharedSize; off += 64 {
		sp.WriteRaw(SharedBase+off, fwFiller)
	}
}

// FlipSecret returns the bit-flipped secret used for the variant DUT —
// the paper's strategy for avoiding identical control values (false
// negatives in diffIFT).
func FlipSecret(secret []byte) []byte {
	out := make([]byte, len(secret))
	for i, b := range secret {
		out[i] = ^b
	}
	return out
}

// Runtime drives one DUT instance through a swap schedule via its trap hook.
type Runtime struct {
	// Space, Sched and Core are the runtime's bindings; everything else is
	// its swap progress, which RuntimeImage holds.
	Space *mem.Space
	Sched *Schedule
	Core  *uarch.Core

	idx int
	// Traps counts handled swap traps; ExcTraps counts non-ecall exceptions
	// (useful when diagnosing stimulus bugs).
	Traps    int
	ExcTraps int
	// LoadCycles records the core cycle at which each packet was swapped in;
	// the last entry is the transient packet's start (trace analyses scope
	// to it).
	LoadCycles []int
}

// RuntimeImage is a runtime's swap progress as a value: the next packet to
// load, the trap counters and the load-cycle log. Restored into a runtime
// bound to the same schedule, together with images of its core and space
// taken at the same cycle, it continues the run exactly.
type RuntimeImage struct {
	idx             int
	traps, excTraps int
	loadCycles      []int
}

// Save copies the runtime's swap progress into img, reusing img's storage.
func (rt *Runtime) Save(img *RuntimeImage) {
	img.idx = rt.idx
	img.traps, img.excTraps = rt.Traps, rt.ExcTraps
	img.loadCycles = append(img.loadCycles[:0], rt.LoadCycles...)
}

// Restore replaces the runtime's swap progress with img's, keeping its
// bindings.
func (rt *Runtime) Restore(img *RuntimeImage) {
	rt.idx = img.idx
	rt.Traps, rt.ExcTraps = img.traps, img.excTraps
	rt.LoadCycles = append(rt.LoadCycles[:0], img.loadCycles...)
}

// NewRuntime wires a runtime to a core and schedule. The caller must call
// Start to load the first packet.
func NewRuntime(core *uarch.Core, space *mem.Space, sched *Schedule) *Runtime {
	rt := &Runtime{}
	rt.Rebind(core, space, sched)
	return rt
}

// Rebind rewires an existing runtime for a fresh run: new core/space/schedule
// binding and the empty progress image restored (counters zeroed, load-cycle
// log truncated, capacity kept). Rebind leaves the runtime in exactly the
// state NewRuntime produces; the caller must still call Start. A Runtime
// never mutates its Schedule, so the same Schedule value may be bound to
// several runtimes concurrently.
func (rt *Runtime) Rebind(core *uarch.Core, space *mem.Space, sched *Schedule) {
	rt.Space = space
	rt.Sched = sched
	rt.Core = core
	rt.Restore(&RuntimeImage{})
	core.TrapHook = rt.onTrap
}

// ClearSwap zeroes the swappable region's bytes. Only pages written since
// the last reset can be non-zero — the pristine image's swappable region is
// all zeros — so only those are cleared.
func ClearSwap(sp *mem.Space) { sp.ZeroDirty(SwapBase) }

// LoadPacket performs one swap on a canonical space: it applies the step's
// permission updates, clears the swappable region and installs the packet
// image, returning the packet's entry point. Both swap runtimes (the core's
// Runtime here and the architectural one in internal/isadiff) load packets
// through it.
func LoadPacket(sp *mem.Space, st Step) (uint64, error) {
	for _, pu := range st.PrePerm {
		if err := sp.SetPerm(pu.Region, pu.Perm); err != nil {
			return 0, fmt.Errorf("swapmem: packet %q: %w", st.Packet.Name, err)
		}
	}
	ClearSwap(sp)
	img := st.Packet.Image
	sp.WriteRaw(img.Base, img.Bytes())
	return st.Packet.Entry, nil
}

// loadPacket swaps the next packet in and flushes the icache (swapped code
// must be refetched).
func (rt *Runtime) loadPacket(st Step) uint64 {
	entry, err := LoadPacket(rt.Space, st)
	if err != nil {
		panic(err)
	}
	rt.Core.ICache.FlushAll()
	rt.LoadCycles = append(rt.LoadCycles, rt.Core.Cycle)
	return entry
}

// TransientStart returns the cycle the final (transient) packet was loaded.
func (rt *Runtime) TransientStart() int {
	if len(rt.LoadCycles) == 0 {
		return 0
	}
	return rt.LoadCycles[len(rt.LoadCycles)-1]
}

// Start loads the first packet and points the core at its entry.
func (rt *Runtime) Start() {
	if len(rt.Sched.Steps) == 0 {
		rt.Core.Restart(SharedBase)
		return
	}
	entry := rt.loadPacket(rt.Sched.Steps[0])
	rt.idx = 1
	rt.Core.Restart(entry)
}

// onTrap is the swap scheduler: any trap ends the current packet; remaining
// packets are loaded in order, and the run halts when the schedule drains.
func (rt *Runtime) onTrap(t isasim.Trap) isasim.TrapAction {
	rt.Traps++
	if t.Cause != isasim.CauseEnvCall && t.Cause != isasim.CauseBreakpoint {
		rt.ExcTraps++
	}
	if rt.idx >= len(rt.Sched.Steps) {
		return isasim.TrapAction{Halt: true}
	}
	entry := rt.loadPacket(rt.Sched.Steps[rt.idx])
	rt.idx++
	return isasim.TrapAction{NewPC: entry}
}
