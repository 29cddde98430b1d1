package scenario

import (
	"fmt"
	"math/rand"

	"dejavuzz/internal/isa"
	"dejavuzz/internal/swapmem"
	"dejavuzz/internal/uarch"
)

// family is the shared Scenario implementation: a description record plus
// build hooks. Nil hooks fall back to the common behaviour (no setup, no
// trainings, DefaultAccess, shared encode table), so most families only
// supply what makes them distinct. Hooks are append-style (see Scenario);
// fixed item sequences live in package-level fragment tables built at init,
// so a build allocates nothing beyond what its parameters force (the
// PC-dependent jump-training setup).
type family struct {
	name      string
	desc      string
	legacy    TriggerType
	trigClass string
	winClass  string
	caps      Capabilities
	squash    uarch.SquashReason

	setup     func(dst []isa.Item, p Params, T uint64) []isa.Item
	window    func(dst []isa.Item, p Params, body []isa.Item) (items []isa.Item, winOff, winLen int)
	access    func(dst []isa.Item, p Params) []isa.Item
	encode    func(dst []isa.Item, p Params, rng *rand.Rand) ([]isa.Item, bool)
	trainings func(dst []Training, p Params, winLo uint64) []Training
}

func (f *family) Name() string                       { return f.name }
func (f *family) Description() string                { return f.desc }
func (f *family) Legacy() TriggerType                { return f.legacy }
func (f *family) Classes() (string, string)          { return f.trigClass, f.winClass }
func (f *family) Caps() Capabilities                 { return f.caps }
func (f *family) ExpectedSquash() uarch.SquashReason { return f.squash }

func (f *family) Setup(dst []isa.Item, p Params, T uint64) []isa.Item {
	if f.setup == nil {
		return dst
	}
	return f.setup(dst, p, T)
}

func (f *family) Window(dst []isa.Item, p Params, body []isa.Item) ([]isa.Item, int, int) {
	return f.window(dst, p, body)
}

func (f *family) Access(dst []isa.Item, p Params) []isa.Item {
	if f.access == nil {
		return DefaultAccess(dst, p)
	}
	return f.access(dst, p)
}

func (f *family) Encode(dst []isa.Item, p Params, rng *rand.Rand) ([]isa.Item, bool) {
	if f.encode == nil {
		return dst, false
	}
	return f.encode(dst, p, rng)
}

func (f *family) Trainings(dst []Training, p Params, winLo uint64) []Training {
	if f.trainings == nil {
		return dst
	}
	return f.trainings(dst, p, winLo)
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

func init() {
	registerCanonical(&family{
		name:      "access-fault",
		desc:      "load/store to a permission-guarded region opens an exception window",
		legacy:    TrigAccessFault,
		trigClass: "load/store access fault",
		winClass:  "exception",
		caps:      Capabilities{InvalidCode: true, StoreFlavored: true},
		squash:    uarch.SquashException,
		setup:     guardSetup(swapmem.GuardAccBase + 0x40),
		window:    faultWindow,
	})
	registerCanonical(&family{
		name:      "page-fault",
		desc:      "load/store to an unmapped page opens an exception window",
		legacy:    TrigPageFault,
		trigClass: "load/store page fault",
		winClass:  "exception",
		caps:      Capabilities{StoreFlavored: true},
		squash:    uarch.SquashException,
		setup:     guardSetup(swapmem.GuardPageBase + 0x40),
		window:    faultWindow,
	})
	registerCanonical(&family{
		name:      "misalign",
		desc:      "misaligned load/store opens an exception window",
		legacy:    TrigMisalign,
		trigClass: "load/store misalign",
		winClass:  "exception",
		caps:      Capabilities{InvalidCode: true, StoreFlavored: true},
		squash:    uarch.SquashException,
		setup:     guardSetup(swapmem.DataBase + 0x101),
		window:    faultWindow,
	})
	registerCanonical(&family{
		name:      "illegal-inst",
		desc:      "undecodable instruction opens an exception window",
		legacy:    TrigIllegal,
		trigClass: "illegal instruction",
		winClass:  "exception",
		caps:      Capabilities{InvalidCode: true},
		squash:    uarch.SquashException,
		window: func(dst []isa.Item, _ Params, body []isa.Item) ([]isa.Item, int, int) {
			dst = append(dst, illegal)
			dst = append(dst, body...)
			return append(dst, ecall), 1, len(body) + 1
		},
	})
	registerCanonical(&family{
		name:      "mem-disambig",
		desc:      "younger load forwards a stale pointer past a slow-address store (memory-ordering window)",
		legacy:    TrigMemDisambig,
		trigClass: "memory disambiguation",
		winClass:  "memory-ordering squash",
		caps:      Capabilities{WarmPointer: true, OwnAccess: true},
		squash:    uarch.SquashMemOrdering,
		setup:     staticSetup(disambigSetup),
		window:    disambigWindow,
		access: func(dst []isa.Item, _ Params) []isa.Item {
			// The stale pointer in t1 (set by the trigger block) points at
			// the secret; dereference it.
			return append(dst, derefStale)
		},
	})
	registerCanonical(&family{
		name:      "branch-mispredict",
		desc:      "trained-taken conditional branch with a slow not-taken condition",
		legacy:    TrigBranchMispred,
		trigClass: "branch misprediction",
		winClass:  "control-flow squash",
		squash:    uarch.SquashBranchMispredict,
		setup:     staticSetup(slowDiv),
		window: func(dst []isa.Item, _ Params, body []isa.Item) ([]isa.Item, int, int) {
			// Trained taken -> window at target; actually not taken -> exit.
			return mispredictWindow(dst, branchTrigger, body)
		},
		trainings: branchTrainings,
	})
	registerCanonical(&family{
		name:      "jump-mispredict",
		desc:      "indirect jump trained onto the window with a slow actual target",
		legacy:    TrigJumpMispred,
		trigClass: "indirect-jump misprediction",
		winClass:  "control-flow squash",
		squash:    uarch.SquashJumpMispredict,
		setup:     slowTargetSetup,
		window: func(dst []isa.Item, _ Params, body []isa.Item) ([]isa.Item, int, int) {
			return mispredictWindow(dst, jumpTrigger, body) // actual: exit at T+4
		},
		trainings: jumpTrainings,
	})
	registerCanonical(&family{
		name:      "return-mispredict",
		desc:      "return predicted from a poisoned RAS while the actual address resolves slowly",
		legacy:    TrigReturnMispred,
		trigClass: "return-address misprediction",
		winClass:  "control-flow squash",
		caps:      Capabilities{BackwardJumps: true},
		squash:    uarch.SquashReturnMispredict,
		setup: func(dst []isa.Item, p Params, T uint64) []isa.Item {
			return append(slowTargetSetup(dst, p, T), retSetup)
		},
		window: func(dst []isa.Item, _ Params, body []isa.Item) ([]isa.Item, int, int) {
			return mispredictWindow(dst, retTrigger, body) // predicted from RAS -> win; actual -> exit
		},
		trainings: retTrainings,
	})
}
