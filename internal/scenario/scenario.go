// Package scenario is DejaVuzz's composable stimulus-scenario subsystem:
// the open registry the generator samples transient-window workloads from.
//
// A Scenario (family) bundles everything one transient-window shape needs —
// the architecturally-executed entry setup, the trigger-and-window layout,
// the secret-access block, an optional dedicated encode gadget, the derived
// training blocks and the squash class the window must terminate with —
// behind one interface, plus capability flags that downstream tools filter
// on (SpecDoctor's documented generator restrictions, the architectural
// isasim target's trigger observability, the README catalog).
//
// The eight trigger classes of Table 3 are registered as canonical families
// (one per TriggerType), and new workloads register alongside them without
// touching the generator, the engine, or any consumer: adding a family is a
// one-package change. Three extended families ship in-tree — a nested
// fault-inside-mispredicted-window shape (SpecFuzz-style nesting), a
// store-to-load-forwarding chain over the disambiguation window, and a
// Shesha-style multi-gadget cache-occupancy encoder.
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
	"sync"
	"sync/atomic"

	"dejavuzz/internal/isa"
	"dejavuzz/internal/uarch"
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
	// NeedsSwapMem marks families whose construction requires swapMem's
	// training/transient isolation — they cannot be expressed as a single
	// linear program, so baselines without swappable memory (SpecDoctor)
	// cannot reach them.
	NeedsSwapMem bool `json:"needs_swapmem,omitempty"`
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

// Scenario is one registered transient-window family. Implementations must
// be stateless values: Build methods are pure functions of their Params, so
// one instance is shared read-only across all campaign shards.
//
// The fragment-producing hooks return typed instruction items (isa.Item)
// and are append-style — they extend dst and return it — so the
// generator's per-shard scratch buffers absorb every build and the campaign
// hot path (two to three packet builds per iteration) assembles packets
// without rendering or parsing text. Fixed item sequences are built once,
// at package init.
//
// Window and encode sizes are counted in items: one item per source line,
// so a `li` that expands to two words still counts once.
type Scenario interface {
	// Name is the registry key (e.g. "branch-mispredict").
	Name() string
	// Description is a one-line human-readable summary.
	Description() string
	// Legacy is the nearest TriggerType class. Findings report it as their
	// window class and the SpecDoctor baseline keys its generator on it.
	Legacy() TriggerType
	// Classes returns the Table-3 trigger and transient-window classes.
	Classes() (trigger, window string)
	// Caps returns the family's structural capability flags.
	Caps() Capabilities
	// ExpectedSquash is the squash class the transient window must be
	// terminated by for the trigger criterion to hold.
	ExpectedSquash() uarch.SquashReason
	// Setup appends the architecturally-executed entry setup; T is the
	// trigger PC (some setups compute addresses relative to it).
	Setup(dst []isa.Item, p Params, T uint64) []isa.Item
	// Window appends the trigger-and-window layout emitted after the
	// "trig" label and returns the window's offset from the trigger PC
	// and its length (the body contributes len(body)).
	Window(dst []isa.Item, p Params, body []isa.Item) (items []isa.Item, winOff, winLen int)
	// Access appends the secret-access block Phase 2 prepends to the
	// encode block when completing the window.
	Access(dst []isa.Item, p Params) []isa.Item
	// Encode appends the family's dedicated secret-encoding block and
	// reports whether it has one; ok=false leaves dst untouched and the
	// caller draws from the shared gadget table instead.
	Encode(dst []isa.Item, p Params, rng *rand.Rand) (items []isa.Item, ok bool)
	// Trainings appends the derived trigger-training blocks; winLo is the
	// resolved transient-window start address.
	Trainings(dst []Training, p Params, winLo uint64) []Training
}

// regState is one immutable registry snapshot. Readers load it through an
// atomic pointer and index read-only maps, so the campaign hot path — which
// resolves a seed's family several times per iteration across all workers —
// takes no locks and shares no contended cache line; writers (init-time
// registration) copy-on-write under regMu.
type regState struct {
	byName    map[string]Scenario
	canonical map[TriggerType]Scenario
	names     []string // sorted
}

var regMu sync.Mutex // serialises writers only

// reg seeds through a variable initializer — not an init() function — so
// the empty snapshot exists before any file's init() registers families
// (package-level variables initialize ahead of all init functions).
var reg = func() *atomic.Pointer[regState] {
	p := new(atomic.Pointer[regState])
	p.Store(&regState{byName: map[string]Scenario{}, canonical: map[TriggerType]Scenario{}})
	return p
}()

// mutate applies one registration under the writer lock, installing a fresh
// snapshot for lock-free readers.
func mutate(f func(st *regState)) {
	regMu.Lock()
	defer regMu.Unlock()
	old := reg.Load()
	st := &regState{
		byName:    make(map[string]Scenario, len(old.byName)+1),
		canonical: make(map[TriggerType]Scenario, len(old.canonical)+1),
		names:     append([]string(nil), old.names...),
	}
	for k, v := range old.byName {
		st.byName[k] = v
	}
	for k, v := range old.canonical {
		st.canonical[k] = v
	}
	f(st)
	sort.Strings(st.names)
	reg.Store(st)
}

// Register adds a family to the registry. It panics on an empty or
// duplicate name (families are wired at init time; a collision is a
// programming error). Registration order never matters: every enumeration
// the package exposes is sorted by name.
func Register(s Scenario) {
	name := s.Name()
	if name == "" {
		panic("scenario: Register with empty name")
	}
	mutate(func(st *regState) {
		if _, dup := st.byName[name]; dup {
			panic(fmt.Sprintf("scenario: family %q registered twice", name))
		}
		st.byName[name] = s
		st.names = append(st.names, name)
	})
}

// registerCanonical registers a family as the canonical implementation of
// its legacy trigger class (the ByTrigger mapping).
func registerCanonical(s Scenario) {
	Register(s)
	mutate(func(st *regState) {
		if prev, dup := st.canonical[s.Legacy()]; dup {
			panic(fmt.Sprintf("scenario: trigger %v already canonical to %q", s.Legacy(), prev.Name()))
		}
		st.canonical[s.Legacy()] = s
	})
}

// Lookup resolves a registered family by name (lock-free).
func Lookup(name string) (Scenario, error) {
	s, ok := reg.Load().byName[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown family %q (registered: %v)", name, Names())
	}
	return s, nil
}

// Names returns the sorted names of every registered family.
func Names() []string {
	return append([]string(nil), reg.Load().names...)
}

// All returns every registered family, sorted by name.
func All() []Scenario {
	st := reg.Load()
	out := make([]Scenario, 0, len(st.names))
	for _, n := range st.names {
		out = append(out, st.byName[n])
	}
	return out
}

// ByTrigger returns the canonical family for a legacy trigger class — the
// seam for TriggerType-era callers (seed draws by trigger class,
// SpecDoctor's per-trigger generator).
// Lock-free, like Lookup.
func ByTrigger(t TriggerType) Scenario {
	s, ok := reg.Load().canonical[t]
	if !ok {
		panic(fmt.Sprintf("scenario: no canonical family for trigger %v", t))
	}
	return s
}
