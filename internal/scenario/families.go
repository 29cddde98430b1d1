package scenario

import (
	"fmt"

	"dejavuzz/internal/isa"
	"dejavuzz/internal/swapmem"
)

// table holds every scenario family, one row each. The first
// NumTriggerTypes rows are the canonical families in class order — row t
// has trigger class t (ByTrigger) — and the extended families follow. Row
// order is otherwise immaterial: every enumeration the package exposes is
// sorted by name.
var table = [...]Family{
	{
		Name:        "access-fault",
		Description: "load/store to a permission-guarded region opens an exception window",
		Trigger:     TrigAccessFault,
		WindowClass: "exception",
		Caps:        Capabilities{InvalidCode: true, StoreFlavored: true},
		setup:       guardSetup(swapmem.GuardAccBase + 0x40),
		window:      faultWindow,
	},
	{
		Name:        "page-fault",
		Description: "load/store to an unmapped page opens an exception window",
		Trigger:     TrigPageFault,
		WindowClass: "exception",
		Caps:        Capabilities{StoreFlavored: true},
		setup:       guardSetup(swapmem.GuardPageBase + 0x40),
		window:      faultWindow,
	},
	{
		Name:        "misalign",
		Description: "misaligned load/store opens an exception window",
		Trigger:     TrigMisalign,
		WindowClass: "exception",
		Caps:        Capabilities{InvalidCode: true, StoreFlavored: true},
		setup:       guardSetup(swapmem.DataBase + 0x101),
		window:      faultWindow,
	},
	{
		Name:        "illegal-inst",
		Description: "undecodable instruction opens an exception window",
		Trigger:     TrigIllegal,
		WindowClass: "exception",
		Caps:        Capabilities{InvalidCode: true},
		window: func(dst []isa.Item, _ Params, body []isa.Item) ([]isa.Item, int, int) {
			dst = append(dst, illegal)
			dst = append(dst, body...)
			return append(dst, ecall), 1, len(body) + 1
		},
	},
	{
		Name:        "mem-disambig",
		Description: "younger load forwards a stale pointer past a slow-address store (memory-ordering window)",
		Trigger:     TrigMemDisambig,
		WindowClass: "memory-ordering squash",
		Caps:        Capabilities{WarmPointer: true, OwnAccess: true},
		setup:       staticSetup(disambigSetup),
		window:      disambigWindow,
		access: func(dst []isa.Item, _ Params) []isa.Item {
			// The stale pointer in t1 (set by the trigger block) points at
			// the secret; dereference it.
			return append(dst, derefStale)
		},
	},
	{
		Name:        "branch-mispredict",
		Description: "trained-taken conditional branch with a slow not-taken condition",
		Trigger:     TrigBranchMispred,
		WindowClass: "control-flow squash",
		setup:       staticSetup(slowDiv),
		window: func(dst []isa.Item, _ Params, body []isa.Item) ([]isa.Item, int, int) {
			// Trained taken -> window at target; actually not taken -> exit.
			return mispredictWindow(dst, branchTrigger, body)
		},
		trainings: branchTrainings,
	},
	{
		Name:        "jump-mispredict",
		Description: "indirect jump trained onto the window with a slow actual target",
		Trigger:     TrigJumpMispred,
		WindowClass: "control-flow squash",
		setup:       slowTargetSetup,
		window: func(dst []isa.Item, _ Params, body []isa.Item) ([]isa.Item, int, int) {
			return mispredictWindow(dst, jumpTrigger, body) // actual: exit at T+4
		},
		trainings: jumpTrainings,
	},
	{
		Name:        "return-mispredict",
		Description: "return predicted from a poisoned RAS while the actual address resolves slowly",
		Trigger:     TrigReturnMispred,
		WindowClass: "control-flow squash",
		Caps:        Capabilities{BackwardJumps: true},
		setup: func(dst []isa.Item, p Params, T uint64) []isa.Item {
			return append(slowTargetSetup(dst, p, T), retSetup)
		},
		window: func(dst []isa.Item, _ Params, body []isa.Item) ([]isa.Item, int, int) {
			return mispredictWindow(dst, retTrigger, body) // predicted from RAS -> win; actual -> exit
		},
		trainings: retTrainings,
	},

	// The extended families (extended.go).
	{
		Name:        "nested-fault-in-branch",
		Description: "transiently faulting access nested inside a mispredicted-branch window",
		Trigger:     TrigBranchMispred,
		WindowClass: "control-flow squash over a nested fault",
		Caps:        Capabilities{InvalidCode: true, StoreFlavored: true},
		setup:       nestedSetup,
		window:      nestedWindow,
		trainings:   branchTrainings,
	},
	{
		Name:        "stl-forward-chain",
		Description: "disambiguation window laundering the stale pointer through store-to-load forwarding",
		Trigger:     TrigMemDisambig,
		WindowClass: "memory-ordering squash over a forwarding chain",
		Caps:        Capabilities{WarmPointer: true, OwnAccess: true},
		setup:       stlSetup,
		window:      disambigWindow,
		access:      stlAccess,
	},
	{
		Name:        "cache-occupancy",
		Description: "exception window with a multi-gadget cache-occupancy encoder (Shesha-style)",
		Trigger:     TrigPageFault,
		WindowClass: "exception over an occupancy encoder",
		Caps:        Capabilities{OwnEncoder: true, StoreFlavored: true},
		setup:       guardSetup(swapmem.GuardPageBase + 0x40),
		window:      faultWindow,
		encode:      occupancyEncode,
	},
}

// staticSetup adapts a fixed fragment into a setup hook.
func staticSetup(items []isa.Item) func([]isa.Item, Params, uint64) []isa.Item {
	return func(dst []isa.Item, _ Params, _ uint64) []isa.Item {
		return append(dst, items...)
	}
}

// guardSetup is the setup of the fault-class families: t6 = addr, the
// address the trigger access faults on.
func guardSetup(addr uint64) func([]isa.Item, Params, uint64) []isa.Item {
	return staticSetup(frag(fmt.Sprintf("li t6, %#x", addr)))
}

// Single items the window layouts share.
var (
	ecall      = item("ecall")
	winLabel   = item("win:")
	faultLoad  = item("ld t6, 0(t6)")
	faultStore = item("sd t6, 0(t6)")
)

// faultWindow is the exception-class layout: the faulting access at the
// trigger PC, the window immediately after it, an ecall terminator.
func faultWindow(dst []isa.Item, p Params, body []isa.Item) ([]isa.Item, int, int) {
	op := faultLoad
	if p.StoreFlavor {
		op = faultStore
	}
	dst = append(dst, op)
	dst = append(dst, body...)
	return append(dst, ecall), 1, len(body) + 1
}

// mispredictWindow is the control-flow layout: the redirecting instruction
// at the trigger PC, the architectural exit at T+4, the window at T+8.
func mispredictWindow(dst []isa.Item, trig isa.Item, body []isa.Item) ([]isa.Item, int, int) {
	dst = append(dst, trig, ecall, winLabel)
	dst = append(dst, body...)
	return append(dst, ecall), 2, len(body) + 1
}

// slowDiv is the branch-condition setup: a0 = 4 computed through two
// divisions so the branch at the trigger resolves long after prediction.
var slowDiv = frag(
	"li a0, 36",
	"li a1, 3",
	"div a0, a0, a1",
	"div a0, a0, a1", // a0 = 4, slowly; a1 = 3 -> branch not taken
)

// slowTargetTail divides the a0 that slowTargetSetup materialises.
var slowTargetTail = frag(
	"li a1, 3",
	"div a0, a0, a1",
	"div a0, a0, a1",
)

// slowTargetSetup computes a0 = T+4 (the architectural exit) through two
// divisions, so the actual target resolves long after fetch redirected.
func slowTargetSetup(dst []isa.Item, _ Params, T uint64) []isa.Item {
	dst = append(dst, isa.Li(isa.RegA0, int64((T+4)*9)))
	return append(dst, slowTargetTail...)
}

// disambigSetup plants the pointer slot and starts the slow recomputation
// of its address, so the trigger store's address resolves after the
// younger speculative load already forwarded the stale pointer. Every
// address is a layout constant, so the fragment builds once.
var disambigSetup = func() []isa.Item {
	ptr := uint64(swapmem.DataBase + 0x300)
	safe := uint64(swapmem.DataBase + 0x400)
	return frag(
		fmt.Sprintf("li a2, %#x", ptr),
		fmt.Sprintf("li a3, %#x", uint64(swapmem.SecretAddr)),
		"sd a3, 0(a2)", // pointer slot <- &secret
		fmt.Sprintf("li a4, %#x", safe),
		// Slow recomputation of the pointer address via division.
		fmt.Sprintf("li t3, %#x", ptr*9),
		"li t4, 3",
		"div t3, t3, t4",
		"div t3, t3, t4", // t3 = ptr, ready ~32 cycles later
	)
}()

var disambigTrigger = frag(
	"sd a4, 0(t3)", // slow-address store overwrites the pointer
	"ld t1, 0(a2)", // speculative load of the (stale) pointer
)

func disambigWindow(dst []isa.Item, _ Params, body []isa.Item) ([]isa.Item, int, int) {
	dst = append(dst, disambigTrigger...)
	dst = append(dst, body...)
	return append(dst, ecall), 1, len(body) + 1
}

// branchTrainBody loops a taken branch at the trigger PC three times; its
// target is the window address (control-flow matching).
var branchTrainBody = frag(
	"beq zero, zero, taken",
	"ecall",
	"taken:", // = win (T+8)
	"addi a3, a3, -1",
	"bnez a3, trainpc",
	"ecall",
)

// loopCount sets the training loops' iteration count.
var (
	loopCount        = item("li a3, 3")
	branchTrainSetup = []isa.Item{loopCount}
)

func branchTrainings(dst []Training, _ Params, _ uint64) []Training {
	return append(dst, Training{Name: "train-branch", Setup: branchTrainSetup, Body: branchTrainBody})
}

// jumpTrainBody trains the indirect-target predictor with the window
// address (in a2), repeated to satisfy target-confidence thresholds.
var jumpTrainBody = frag(
	"jalr x0, 0(a2)", // jumps to win
	"ecall",
	"landing:", // = win
	"addi a3, a3, -1",
	"bnez a3, trainpc",
	"ecall",
)

func jumpTrainings(dst []Training, _ Params, winLo uint64) []Training {
	return append(dst, Training{
		Name:  "train-jalr",
		Setup: []isa.Item{isa.Li(isa.RegA2, int64(winLo)), loopCount},
		Body:  jumpTrainBody,
	})
}

// retTrainBody is a call whose return address equals the window start: the
// auipc of `call` sits at the trigger PC, its jalr at T+4, so ra = T+8 =
// win.
var retTrainBody = frag(fmt.Sprintf("call %#x", uint64(swapmem.SwapDoneAddr)))

func retTrainings(dst []Training, _ Params, _ uint64) []Training {
	return append(dst, Training{Name: "train-ret", Body: retTrainBody})
}

// The canonical families' single-item triggers and steps.
var (
	derefStale    = item("ld s0, 0(t1)")
	branchTrigger = item("beq a0, a1, win")
	jumpTrigger   = item("jalr x0, 0(a0)")
	retSetup      = item("mv ra, a0")
	retTrigger    = item("ret")
	illegal       = item(".illegal")
)
