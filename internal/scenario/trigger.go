package scenario

import (
	"fmt"

	"dejavuzz/internal/uarch"
)

// TriggerType enumerates the transient-window trigger classes of Table 3.
// Every scenario family belongs to one (Family.Trigger), so findings,
// experiments and the SpecDoctor baseline keep a stable taxonomy while the
// family name is the finer-grained identity.
type TriggerType int

const (
	TrigAccessFault TriggerType = iota
	TrigPageFault
	TrigMisalign
	TrigIllegal
	TrigMemDisambig
	TrigBranchMispred
	TrigJumpMispred
	TrigReturnMispred

	NumTriggerTypes
)

// triggerClasses states each trigger class once: its name, its spelling in
// the scenario catalog, and the squash a window of the class must end in
// for the trigger criterion (Step 1.1) to hold. Exceptions end in an
// exception squash, memory disambiguation in a memory-ordering replay, and
// each misprediction in its own misprediction squash.
var triggerClasses = [NumTriggerTypes]struct {
	name, title string
	squash      uarch.SquashReason
}{
	TrigAccessFault:   {"load/store-access-fault", "load/store access fault", uarch.SquashException},
	TrigPageFault:     {"load/store-page-fault", "load/store page fault", uarch.SquashException},
	TrigMisalign:      {"load/store-misalign", "load/store misalign", uarch.SquashException},
	TrigIllegal:       {"illegal-instruction", "illegal instruction", uarch.SquashException},
	TrigMemDisambig:   {"memory-disambiguation", "memory disambiguation", uarch.SquashMemOrdering},
	TrigBranchMispred: {"branch-misprediction", "branch misprediction", uarch.SquashBranchMispredict},
	TrigJumpMispred:   {"indirect-jump-misprediction", "indirect-jump misprediction", uarch.SquashJumpMispredict},
	TrigReturnMispred: {"return-address-misprediction", "return-address misprediction", uarch.SquashReturnMispredict},
}

func (t TriggerType) String() string {
	if t < 0 || t >= NumTriggerTypes {
		return fmt.Sprintf("trigger(%d)", int(t))
	}
	return triggerClasses[t].name
}

// Squash is the squash class a transient window of trigger class t must be
// terminated by. An unknown class has uarch.SquashNone, which no squash
// carries.
func (t TriggerType) Squash() uarch.SquashReason {
	if t < 0 || t >= NumTriggerTypes {
		return uarch.SquashNone
	}
	return triggerClasses[t].squash
}

// AllTriggerTypes lists every trigger class.
func AllTriggerTypes() []TriggerType {
	out := make([]TriggerType, NumTriggerTypes)
	for i := range out {
		out[i] = TriggerType(i)
	}
	return out
}
