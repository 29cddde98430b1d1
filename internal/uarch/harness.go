package uarch

import "dejavuzz/internal/isasim"

// Pair is the differential testbench: two identical cores executing the same
// stimulus with different secrets, coupled for diffIFT control-taint gating.
type Pair struct {
	A, B *Core
}

// NewPair couples two cores. Both are switched to IFTDiff.
//
// Pairs are cheap couplings, not resettable state: the execution contexts
// in internal/core reset each Core in place (Core.Reset) and build a fresh
// two-word Pair per run.
func NewPair(a, b *Core) *Pair {
	a.Mode = IFTDiff
	b.Mode = IFTDiff
	return &Pair{A: a, B: b}
}

// Step advances both instances one cycle and resolves the cross-instance
// control-taint comparisons (the Sdiff signals of Table 1).
func (p *Pair) Step() {
	if !p.A.Halted {
		p.A.Step()
	}
	if !p.B.Halted {
		p.B.Step()
	}
	p.A.ResolveCtl(p.B)
	p.B.ResolveCtl(p.A)
}

// Run steps until both instances halt or the cycle budget expires.
// It returns each instance's cycle count — the constant-time oracle input.
func (p *Pair) Run(maxCycles int) (cyclesA, cyclesB int) {
	for n := 0; n < maxCycles && !(p.A.Halted && p.B.Halted); n++ {
		p.Step()
	}
	return p.A.Cycle, p.B.Cycle
}

// HaltingHook returns a TrapHook that halts on the first trap — the minimal
// runtime for single-packet programs (tests and micro-benchmarks).
func HaltingHook() func(isasim.Trap) isasim.TrapAction {
	return func(isasim.Trap) isasim.TrapAction { return isasim.TrapAction{Halt: true} }
}
