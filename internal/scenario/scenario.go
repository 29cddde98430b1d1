// Package scenario is DejaVuzz's composable stimulus-scenario subsystem:
// the table of transient-window families the generator samples from.
//
// A family is one row of that table (Family). It names its Table 3 trigger
// class and window class, carries the capability flags downstream tools
// filter on (SpecDoctor's documented generator restrictions, the README
// catalog), and holds the build hooks for everything one transient-window
// shape needs: the architecturally-executed entry setup, the
// trigger-and-window layout, the secret-access block, an optional dedicated
// encode block and the derived training blocks. The squash its window must
// end in is its trigger class's, stated once in trigger.go.
//
// The first eight rows are the canonical families, one per Table 3 trigger
// class in class order (ByTrigger). Three extended families follow — a
// nested fault-inside-mispredicted-window shape (SpecFuzz-style nesting), a
// store-to-load-forwarding chain over the disambiguation window, and a
// Shesha-style multi-gadget cache-occupancy encoder. Adding a workload is
// adding a row: the generator, engine, CLI, server and triage read the
// table.
//
// The package also provides the coverage-adaptive Scheduler campaign shards
// draw families from: per-family coverage yield observed at merge barriers
// shifts the sampling weights, with an exploration floor so no family
// starves. Weights are part of the engine's checkpoint state, so adaptive
// scheduling preserves worker-count determinism and cancel+resume
// byte-identity.
package scenario

import (
	"fmt"
	"math/rand"
	"sort"

	"dejavuzz/internal/isa"
)

// Params is the per-stimulus knob set a scenario family builds from — the
// entropy the generator draws for one seed, minus the seed's identity
// fields (core, family, variant, derivation RNG).
type Params struct {
	TriggerOff   int  // pad-nop count before the trigger instruction
	WindowLen    int  // dummy-window length in instructions
	EncodeOps    int  // number of encode gadgets in Phase 2
	Encoder      int  // encode-gadget selector: 0 = draw per op, 1..N = gadget N-1
	MaskHigh     bool // mask high address bits in the secret access (MDS probing)
	SecretFaults bool // Meltdown-type: secret access itself faults
	StoreFlavor  bool // use a store for fault-type triggers
}

// Capabilities are the coarse structural properties downstream tools filter
// families on, instead of hardcoding trigger lists.
type Capabilities struct {
	// BackwardJumps marks families whose trigger/window structure requires
	// backward control flow when rendered as a single linear program — the
	// form SpecDoctor's generator emits and whose backward-jump windows it
	// discards (e.g. a return window, whose `ret` jumps backwards). It is
	// NOT about DejaVuzz's own derived trainings: those run in isolated
	// swapMem packets and may loop freely (branch/jump trainings do)
	// without affecting this flag.
	BackwardJumps bool `json:"backward_jumps,omitempty"`
	// InvalidCode marks families that emit invalid accesses or illegal
	// instructions; generators restricted to valid code never reach them.
	InvalidCode bool `json:"invalid_code,omitempty"`
	// WarmPointer marks families whose window training must additionally
	// warm the disambiguation pointer slot.
	WarmPointer bool `json:"warm_pointer,omitempty"`
	// OwnEncoder marks families with a dedicated encode block that ignores
	// the shared gadget table; the swap-encoder mutation operator skips
	// them (changing Params.Encoder would not change their stimulus).
	OwnEncoder bool `json:"own_encoder,omitempty"`
	// OwnAccess marks families with a dedicated secret-access block that
	// ignores Params.MaskHigh; the flag-flip mutation operator skips
	// MaskHigh for them.
	OwnAccess bool `json:"own_access,omitempty"`
	// StoreFlavored marks families whose trigger (or nested fault) reads
	// Params.StoreFlavor; for the rest a StoreFlavor flip would be a
	// stimulus no-op and the mutation operator skips it.
	StoreFlavored bool `json:"store_flavored,omitempty"`
}

// Training is one derived trigger-training block: setup items executed
// before alignment padding, and the training body whose first instruction
// lands on the trigger PC (the builder defines the "trainpc" label there).
type Training struct {
	Name  string
	Setup []isa.Item
	Body  []isa.Item
}

// Family is one scenario family: one row of the table. Rows are built once,
// at package init, and their hooks are pure functions of their Params, so
// one row is shared read-only by every campaign shard.
//
// The hooks return typed instruction items (isa.Item) and are append-style
// — they extend dst and return it — so the generator's per-shard scratch
// buffers absorb every build and the campaign hot path (two to three packet
// builds per iteration) assembles packets without rendering or parsing
// text. Fixed item sequences are built once, at package init. A nil hook
// takes the common behaviour (see the methods), so most rows supply only
// what makes them distinct.
//
// Window and encode sizes are counted in items: one item per source line,
// so a `li` that expands to two words still counts once.
type Family struct {
	Name        string // the table key, e.g. "branch-mispredict"
	Description string // a one-line summary
	// Trigger is the family's Table 3 trigger class. Findings report it as
	// their window class, SpecDoctor keys its generator on it, and its
	// Squash is the squash the family's windows must end in.
	Trigger     TriggerType
	WindowClass string // the Table 3 transient-window class
	Caps        Capabilities

	setup     func(dst []isa.Item, p Params, T uint64) []isa.Item
	window    func(dst []isa.Item, p Params, body []isa.Item) (items []isa.Item, winOff, winLen int)
	access    func(dst []isa.Item, p Params) []isa.Item
	encode    func(dst []isa.Item, p Params) []isa.Item
	trainings func(dst []Training, p Params, winLo uint64) []Training
}

// Setup appends the architecturally-executed entry setup (none by
// default); T is the trigger PC (some setups compute addresses relative to
// it).
func (f *Family) Setup(dst []isa.Item, p Params, T uint64) []isa.Item {
	if f.setup == nil {
		return dst
	}
	return f.setup(dst, p, T)
}

// Window appends the trigger-and-window layout emitted after the "trig"
// label and returns the window's offset from the trigger PC and its length
// (the body contributes len(body)).
func (f *Family) Window(dst []isa.Item, p Params, body []isa.Item) ([]isa.Item, int, int) {
	return f.window(dst, p, body)
}

// Access appends the secret-access block Phase 2 prepends to the encode
// block when completing the window (defaultAccess by default).
func (f *Family) Access(dst []isa.Item, p Params) []isa.Item {
	if f.access == nil {
		return defaultAccess(dst, p)
	}
	return f.access(dst, p)
}

// Encode appends the secret-encoding block: the family's dedicated one, or
// by default the shared gadget table's (sharedEncode, which draws from rng).
func (f *Family) Encode(dst []isa.Item, p Params, rng *rand.Rand) []isa.Item {
	if f.encode == nil {
		return sharedEncode(dst, p, rng)
	}
	return f.encode(dst, p)
}

// Trainings appends the derived trigger-training blocks (none by default);
// winLo is the resolved transient-window start address.
func (f *Family) Trainings(dst []Training, p Params, winLo uint64) []Training {
	if f.trainings == nil {
		return dst
	}
	return f.trainings(dst, p, winLo)
}

// The table's indexes, built once at package init: every row by name, and
// the rows and their names sorted by name. The canonical row of trigger
// class t is table[t].
var (
	byName = make(map[string]*Family, len(table))
	sorted = make([]*Family, 0, len(table))
	names  = make([]string, 0, len(table))
)

func init() {
	for i := range table {
		byName[table[i].Name] = &table[i]
		sorted = append(sorted, &table[i])
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, f := range sorted {
		names = append(names, f.Name)
	}
}

// Lookup resolves a family by name.
func Lookup(name string) (*Family, error) {
	f, ok := byName[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown family %q (families: %v)", name, names)
	}
	return f, nil
}

// Names returns the sorted names of every family.
func Names() []string {
	return append([]string(nil), names...)
}

// All returns every family, sorted by name.
func All() []*Family {
	return append([]*Family(nil), sorted...)
}

// ByTrigger returns the canonical family of a trigger class — the seam for
// callers that draw by class (uniform seed draws, SpecDoctor's per-class
// generator).
func ByTrigger(t TriggerType) *Family {
	if t < 0 || t >= NumTriggerTypes {
		panic(fmt.Sprintf("scenario: no canonical family for trigger %v", t))
	}
	return &table[t]
}
