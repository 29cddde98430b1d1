// Package gen is DejaVuzz's stimulus sampler and mutator: a deterministic
// front-end over the scenario table (internal/scenario). The table owns
// what a transient-window workload *is* — entry setup, trigger/window
// layout, secret access, encode gadget, derived training, capability flags —
// while this package owns how campaigns draw from it:
//
//   - seed sampling, uniform (RandomSeed) or through a coverage-adaptive
//     scenario scheduler (ScheduledSeed),
//   - structured mutation operators over the seed space — swap scenario,
//     swap encoder, perturb window, splice training — each guaranteed to
//     change the seed (no wasted re-roll iterations),
//   - deterministic per-shard/per-epoch RNG stream derivation, and
//   - stimulus materialisation: assembling a seed's scenario into swapMem
//     packets (transient, trigger-training, window-training), including the
//     DejaVuzz* random-training ablation and Phase 3's encode sanitisation.
package gen

import (
	"fmt"
	"math/rand"
	"sort"

	"dejavuzz/internal/isa"
	"dejavuzz/internal/scenario"
	"dejavuzz/internal/swapmem"
	"dejavuzz/internal/uarch"
)

// TriggerType re-exports the scenario package's legacy trigger taxonomy;
// see the migration notes in the README. New code should address scenario
// families by name.
type TriggerType = scenario.TriggerType

// The legacy trigger classes, re-exported.
const (
	TrigAccessFault   = scenario.TrigAccessFault
	TrigPageFault     = scenario.TrigPageFault
	TrigMisalign      = scenario.TrigMisalign
	TrigIllegal       = scenario.TrigIllegal
	TrigMemDisambig   = scenario.TrigMemDisambig
	TrigBranchMispred = scenario.TrigBranchMispred
	TrigJumpMispred   = scenario.TrigJumpMispred
	TrigReturnMispred = scenario.TrigReturnMispred

	NumTriggerTypes = scenario.NumTriggerTypes
)

// AllTriggerTypes lists every legacy trigger class.
func AllTriggerTypes() []TriggerType { return scenario.AllTriggerTypes() }

// Variant selects the training-generation strategy.
type Variant int

const (
	// VariantDerived is DejaVuzz proper: training derived from the transient
	// packet's execution information.
	VariantDerived Variant = iota
	// VariantRandom is the DejaVuzz* ablation: swapMem isolation but random,
	// underived training instructions.
	VariantRandom
)

func (v Variant) String() string {
	if v == VariantRandom {
		return "DejaVuzz*"
	}
	return "DejaVuzz"
}

// Seed holds the configuration entropy for one stimulus (the corpus unit).
type Seed struct {
	Core uarch.CoreKind
	// Scenario names the seed's family; Validate refuses a seed that names
	// none.
	Scenario string `json:",omitempty"`
	// Trigger is the scenario's legacy trigger class; kept in the seed so
	// findings and triage keep a stable taxonomy.
	Trigger TriggerType
	Variant Variant
	Rand    int64

	TriggerOff   int  // pad-nop count before the trigger instruction
	WindowLen    int  // dummy-window length in instructions
	EncodeOps    int  // number of encode gadgets in Phase 2
	Encoder      int  `json:",omitempty"` // 0 = draw per op, k>0 = pin gadget k-1
	MaskHigh     bool // mask high address bits in the secret access (MDS probing)
	SecretFaults bool // Meltdown-type: secret access itself faults
	StoreFlavor  bool // use a store for fault-type triggers
}

// params projects the seed's knobs into the scenario build parameters.
func (s Seed) params() scenario.Params {
	return scenario.Params{
		TriggerOff:   s.TriggerOff,
		WindowLen:    s.WindowLen,
		EncodeOps:    s.EncodeOps,
		Encoder:      s.Encoder,
		MaskHigh:     s.MaskHigh,
		SecretFaults: s.SecretFaults,
		StoreFlavor:  s.StoreFlavor,
	}
}

// FamilyOf resolves the seed's named scenario family. Hand-crafted seeds
// (repro JSON) can carry anything, so it errors instead of panicking.
func FamilyOf(s Seed) (*scenario.Family, error) {
	return scenario.Lookup(s.Scenario)
}

// Validate refuses a seed no draw or mutation could have produced, naming
// the offending field: the seed must name a family and Trigger must be its
// trigger class, the core and variant must be known, and every knob must
// lie in the range drawKnobs and Mutate keep it in. Seeds from outside the
// generator — repro JSON, checkpoints, warm-start sets — pass through it
// before anything is built from them.
func (s Seed) Validate() error {
	if s.Scenario == "" {
		return fmt.Errorf("gen: seed Scenario is empty: every seed names its family")
	}
	if fam, err := scenario.Lookup(s.Scenario); err != nil {
		return fmt.Errorf("gen: seed Scenario: %w", err)
	} else if s.Trigger != fam.Trigger {
		return fmt.Errorf("gen: seed Trigger %v is not family %s's class %v", s.Trigger, s.Scenario, fam.Trigger)
	}
	if s.Core != uarch.KindBOOM && s.Core != uarch.KindXiangShan {
		return fmt.Errorf("gen: seed Core %d is not a modelled core", int(s.Core))
	}
	if s.Variant != VariantDerived && s.Variant != VariantRandom {
		return fmt.Errorf("gen: seed Variant %d is unknown", int(s.Variant))
	}
	for _, k := range [...]struct {
		name      string
		v, lo, hi int // v must lie in [lo, hi]
	}{
		{"TriggerOff", s.TriggerOff, 60, 109},
		{"WindowLen", s.WindowLen, 4, 11},
		{"EncodeOps", s.EncodeOps, 1, 4},
		{"Encoder", s.Encoder, 0, scenario.NumEncoders()},
	} {
		if k.v < k.lo || k.v > k.hi {
			return fmt.Errorf("gen: seed %s %d outside [%d, %d]", k.name, k.v, k.lo, k.hi)
		}
	}
	return nil
}

// ScenarioName returns the seed's family name.
func ScenarioName(s Seed) string { return s.Scenario }

// TriggerClass returns the trigger class of the seed's family, the class
// findings and iteration records carry. A seed that names no known family
// (Validate refuses one) has class -1, which no squash ends.
func TriggerClass(s Seed) TriggerType {
	fam, err := FamilyOf(s)
	if err != nil {
		return -1
	}
	return fam.Trigger
}

// Generator produces seeds and stimuli deterministically from its RNG.
// A Generator also owns the scratch buffers stimulus construction
// materialises typed fragments into, so one long-lived Generator per shard
// makes stimulus building allocation-light; those buffers make a Generator
// single-goroutine (campaign shards each own one). Scratch grows on first
// use: New allocates none.
type Generator struct {
	rng *rand.Rand

	// scenarios is the enabled family set mutation's swap-scenario operator
	// draws from (sorted; defaults to every family).
	scenarios []string
	// items (the packet being assembled) and body (a window body, or a
	// random training's setup and body) are scratch reused across packet
	// builds, valid only within one build call; trainSpecs is the recycled
	// training-spec slice the family hooks append into.
	items      []isa.Item
	body       []isa.Item
	trainSpecs []scenario.Training
	// brng is the per-stimulus derivation RNG, reseeded from Seed.Rand for
	// every build (so builds stay pure functions of the seed).
	brng *rand.Rand
}

// New returns a generator with the given RNG seed. Its stream is the one
// rand.New(rand.NewSource(seed)) draws; see source.
func New(seed int64) *Generator {
	return &Generator{rng: rand.New(newSource(seed))}
}

// Reseed returns the generator's RNG to the state New(seed) produces,
// keeping the generator's scratch buffers and scenario set. Equivalent to
// replacing the generator with a fresh one — without the allocation.
func (g *Generator) Reseed(seed int64) {
	g.rng.Seed(seed)
}

// SetScenarios restricts the family set the swap-scenario mutation operator
// draws from (the campaign's -scenarios filter). Names are copied and
// sorted; an empty set restores the default (every family).
func (g *Generator) SetScenarios(names []string) {
	if len(names) == 0 {
		g.scenarios = nil
		return
	}
	g.scenarios = append(g.scenarios[:0], names...)
	sort.Strings(g.scenarios)
}

// enabledScenarios returns the mutation family set.
func (g *Generator) enabledScenarios() []string {
	if g.scenarios != nil {
		return g.scenarios
	}
	return scenario.Names()
}

// buildRand returns the generator's reusable derivation RNG seeded to the
// state rand.New(rand.NewSource(seed)) produces, in O(1) (see source).
func (g *Generator) buildRand(seed int64) *rand.Rand {
	if g.brng == nil {
		g.brng = rand.New(newSource(seed))
		return g.brng
	}
	g.brng.Seed(seed)
	return g.brng
}

// SplitMix64 is the SplitMix64 finaliser, used to derive statistically
// independent per-shard streams from one campaign seed and, in the corpus,
// to shuffle a warm-start set without math/rand state.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ShardSeed derives the RNG seed for one shard of a campaign: shards of the
// same campaign get decorrelated streams, and the mapping depends only on
// (campaign seed, shard id) — never on worker count or scheduling.
func ShardSeed(campaignSeed int64, shard int) int64 {
	return int64(SplitMix64(uint64(campaignSeed)*0x9e3779b97f4a7c15 + uint64(shard) + 1))
}

// EpochShardSeed derives the RNG seed for one (shard, epoch) cell of a
// campaign. Seeding shard generators per epoch (rather than once per
// campaign) makes a merge barrier a complete cut point: the stimulus stream
// after barrier k depends only on (campaign seed, shard id, epoch index) and
// the barrier-merged state, so a campaign checkpointed at a barrier resumes
// byte-identically without serialising RNG internals.
func EpochShardSeed(campaignSeed int64, shard, epoch int) int64 {
	return int64(SplitMix64(uint64(ShardSeed(campaignSeed, shard)) + SplitMix64(uint64(epoch)+0x51ed)))
}

// NewEpochShard returns the deterministic generator for one shard epoch.
func NewEpochShard(campaignSeed int64, shard, epoch int) *Generator {
	return New(EpochShardSeed(campaignSeed, shard, epoch))
}

// drawKnobs fills the seed's non-identity entropy from the generator's RNG.
func (g *Generator) drawKnobs(s *Seed) {
	s.Rand = g.rng.Int63()
	s.TriggerOff = 60 + g.rng.Intn(50)
	s.WindowLen = 4 + g.rng.Intn(6)
	s.EncodeOps = 1 + g.rng.Intn(3)
	s.Encoder = g.rng.Intn(scenario.NumEncoders() + 1)
	s.MaskHigh = g.rng.Intn(4) == 0
	s.SecretFaults = g.rng.Intn(2) == 0
	s.StoreFlavor = g.rng.Intn(4) == 0
}

// RandomSeed draws a fresh seed for a core, uniform over the canonical
// (legacy) trigger classes — the pre-scheduler sampling behaviour.
func (g *Generator) RandomSeed(core uarch.CoreKind) Seed {
	t := TriggerType(g.rng.Intn(int(NumTriggerTypes)))
	s := Seed{
		Core:     core,
		Scenario: scenario.ByTrigger(t).Name,
		Trigger:  t,
		Variant:  VariantDerived,
	}
	g.drawKnobs(&s)
	return s
}

// SeedScenario draws a fresh seed for a named scenario family.
func (g *Generator) SeedScenario(core uarch.CoreKind, fam string) (Seed, error) {
	sc, err := scenario.Lookup(fam)
	if err != nil {
		return Seed{}, err
	}
	s := Seed{
		Core:     core,
		Scenario: sc.Name,
		Trigger:  sc.Trigger,
		Variant:  VariantDerived,
	}
	g.drawKnobs(&s)
	return s, nil
}

// ScheduledSeed draws a fresh seed with the family chosen by the campaign's
// coverage-adaptive scheduler, consuming the generator's own RNG stream so
// shard determinism is preserved.
func (g *Generator) ScheduledSeed(core uarch.CoreKind, sch *scenario.Scheduler) Seed {
	s, err := g.SeedScenario(core, sch.Pick(g.rng))
	if err != nil {
		// Scheduler families are validated at campaign construction.
		panic(fmt.Sprintf("gen: scheduled seed: %v", err))
	}
	return s
}

// SeedFor draws a seed with a fixed legacy trigger type (its canonical
// scenario family).
func (g *Generator) SeedFor(core uarch.CoreKind, t TriggerType, v Variant) Seed {
	s, _ := g.SeedScenario(core, scenario.ByTrigger(t).Name)
	s.Variant = v
	return s
}

// Mutation operator count (see Mutate).
const numMutationOps = 7

// Mutate applies one structured mutation operator to a seed — swap scenario,
// swap encoder, perturb window (length, alignment, gadget count, access
// flags) or splice training — and guarantees the result differs from the
// input: every operator re-rolls its target field onto a different value,
// so no feedback iteration is ever wasted replaying the seed it started
// from. Operators that would not change the built stimulus for the seed's
// family (swapping scenarios in a single-family campaign, swapping the
// shared-table encoder under a family with a dedicated encode block) are
// redirected to a window perturbation instead of drawing a no-op.
//
// Core and Variant are always preserved; the derivation entropy (Rand) is
// preserved by the structural operators so their effect is isolated, and
// re-rolled only by the splice-training operator.
func (g *Generator) Mutate(s Seed) Seed {
	n := s
	op := g.rng.Intn(numMutationOps)
	fams := g.enabledScenarios()
	if op == 0 && len(fams) < 2 {
		op = 2 // single-family campaigns cannot swap scenarios
	}
	if op == 1 {
		if fam, err := FamilyOf(s); err != nil || fam.Caps.OwnEncoder {
			op = 2 // the family never reads Params.Encoder
		}
	}
	switch op {
	case 0: // swap scenario: a different family from the enabled set
		cur := 0
		name := ScenarioName(s)
		for i, f := range fams {
			if f == name {
				cur = i
				break
			}
		}
		next := fams[(cur+1+g.rng.Intn(len(fams)-1))%len(fams)]
		sc, err := scenario.Lookup(next)
		if err != nil {
			panic(fmt.Sprintf("gen: mutate: %v", err))
		}
		n.Scenario = sc.Name
		n.Trigger = sc.Trigger
	case 1: // swap encoder: a different gadget selector
		span := scenario.NumEncoders() + 1
		n.Encoder = (s.Encoder + 1 + g.rng.Intn(span-1)) % span
	case 2: // perturb window length within [4, 12)
		n.WindowLen = 4 + (s.WindowLen-4+1+g.rng.Intn(7))%8
	case 3: // perturb trigger alignment within [60, 110)
		n.TriggerOff = 60 + (s.TriggerOff-60+1+g.rng.Intn(49))%50
	case 4: // perturb encode-gadget count within [1, 4] (mutation reaches
		// one more stacked gadget than a fresh draw, as before the registry)
		n.EncodeOps = 1 + (s.EncodeOps-1+1+g.rng.Intn(3))%4
	case 5: // flip one access flag the family actually reads: SecretFaults
		// is always live (it gates the schedule's permission update);
		// MaskHigh only matters under the shared access block; StoreFlavor
		// only for store-flavoured trigger/fault layouts. Dead flags are
		// excluded so the flip is never a stimulus no-op.
		var caps scenario.Capabilities
		if fam, err := FamilyOf(s); err == nil {
			caps = fam.Caps
		} else {
			caps.OwnAccess = true // unknown family: only SecretFaults is safe
		}
		candidates := 1
		if !caps.OwnAccess {
			candidates++
		}
		if caps.StoreFlavored {
			candidates++
		}
		pick := g.rng.Intn(candidates)
		switch {
		case pick == 0:
			n.SecretFaults = !n.SecretFaults
		case pick == 1 && !caps.OwnAccess:
			n.MaskHigh = !n.MaskHigh
		default:
			n.StoreFlavor = !n.StoreFlavor
		}
	case 6: // splice training: fresh derivation entropy, structure kept
		for n.Rand == s.Rand {
			n.Rand = g.rng.Int63()
		}
	}
	return n
}

// Stimulus is a fully constructed swapMem test case. The zero value is an
// empty buffer the *Into build calls fill.
type Stimulus struct {
	Seed Seed

	Transient     *swapmem.Packet
	TriggerTrains []*swapmem.Packet
	WindowTrains  []*swapmem.Packet

	TriggerPC uint64
	WindowLo  uint64
	WindowHi  uint64

	// EncodeBlock is the secret-encoding block (for sanitisation); empty in
	// Phase 1 (dummy window).
	EncodeBlock []isa.Item
	// Completed marks Phase 2 window completion.
	Completed bool
}

// triggerAddr computes the trigger PC for a seed.
func triggerAddr(s Seed) uint64 {
	return swapmem.SwapBase + 4*uint64(s.TriggerOff)
}

// BuildStimulus constructs the Phase-1 stimulus: transient packet with a
// dummy (nop) window plus derived or random trigger-training packets.
func (g *Generator) BuildStimulus(seed Seed) (*Stimulus, error) {
	st := &Stimulus{}
	if err := g.BuildStimulusInto(st, seed); err != nil {
		return nil, err
	}
	return st, nil
}

// BuildStimulusInto is BuildStimulus materialised into a caller-provided
// Stimulus, reusing its packet-slice capacity. The campaign engine hands
// each shard pipeline a small set of Stimulus buffers that live for the
// whole campaign; the result is only valid until the next build into the
// same buffer. Seeds that fail Validate are refused.
func (g *Generator) BuildStimulusInto(st *Stimulus, seed Seed) error {
	if err := seed.Validate(); err != nil {
		return err
	}
	fam, err := FamilyOf(seed)
	if err != nil {
		return err // FamilyOf errors carry their own prefix
	}
	rng := g.buildRand(seed.Rand)
	trains := st.TriggerTrains[:0]
	*st = Stimulus{Seed: seed, TriggerPC: triggerAddr(seed), Transient: st.Transient}

	body := appendNops(g.body[:0], seed.WindowLen)
	g.body = body
	if err := g.buildTransient(st, fam, body); err != nil {
		return err
	}
	if seed.Variant == VariantRandom {
		st.TriggerTrains = g.randomTrainings(trains, st, rng, 6)
		return nil
	}
	st.TriggerTrains, err = g.deriveTrainings(trains, st, fam, rng)
	return err
}

// Items the packet builders share.
var (
	nopItem       = isa.I(isa.Nop())
	ecallItem     = isa.I(isa.Inst{Op: isa.OpEcall})
	jumpToTrigger = isa.Jal(isa.RegZero, "trig")
	trigLabel     = isa.Label("trig")
	trainLabel    = isa.Label("trainpc")
)

// appendNops appends n nop items: Phase 1's placeholder window body, and
// the sanitised encode block (one nop per encode item).
func appendNops(dst []isa.Item, n int) []isa.Item {
	for i := 0; i < n; i++ {
		dst = append(dst, nopItem)
	}
	return dst
}

// buildTransient assembles the transient packet for the seed's scenario
// family with the given window body, filling in TriggerPC/WindowLo/WindowHi.
// The items are materialised into the generator's scratch buffer and the
// packet struct is reused when the stimulus already carries one.
func (g *Generator) buildTransient(st *Stimulus, fam *scenario.Family, windowBody []isa.Item) error {
	s := st.Seed
	p := s.params()
	T := st.TriggerPC

	// --- entry setup, then padding and a jump to the trigger ---
	items := fam.Setup(g.items[:0], p, T)
	setupWords := isa.WordCount(items)
	pad := s.TriggerOff - setupWords - 1
	if pad < 0 {
		g.items = items
		return fmt.Errorf("gen: trigger offset %d too small for %d setup words", s.TriggerOff, setupWords)
	}
	items = append(items, jumpToTrigger, isa.Nops(pad), trigLabel)

	// --- trigger and window layout ---
	var winOff, winLen int
	items, winOff, winLen = fam.Window(items, p, windowBody)
	g.items = items
	st.WindowLo = T + 4*uint64(winOff)
	st.WindowHi = st.WindowLo + 4*uint64(winLen)

	img, err := isa.Assemble(swapmem.SwapBase, items)
	if err != nil {
		return fmt.Errorf("gen: transient packet: %w", err)
	}
	if st.Transient == nil {
		st.Transient = &swapmem.Packet{}
	}
	*st.Transient = swapmem.Packet{
		Name:     "transient",
		Kind:     swapmem.PacketTransient,
		Image:    img,
		Entry:    swapmem.SwapBase,
		PadInsts: pad,
	}
	return nil
}

// trainingPacket assembles a trigger-training packet: setup, pad nops so the
// training instruction (the "trainpc" label) aligns with the trigger PC,
// then the training body. The items are materialised into the generator's
// scratch buffer.
func (g *Generator) trainingPacket(name string, st *Stimulus, setup, body []isa.Item) (*swapmem.Packet, error) {
	pad := max(st.Seed.TriggerOff-isa.WordCount(setup), 0)
	items := append(g.items[:0], setup...)
	items = append(items, isa.Nops(pad), trainLabel)
	items = append(items, body...)
	g.items = items
	img, err := isa.Assemble(swapmem.SwapBase, items)
	if err != nil {
		return nil, fmt.Errorf("gen: training packet %s: %w", name, err)
	}
	return &swapmem.Packet{
		Name:       name,
		Kind:       swapmem.PacketTriggerTrain,
		Image:      img,
		Entry:      swapmem.SwapBase,
		TrainInsts: len(img.Words) - pad,
		PadInsts:   pad,
	}, nil
}

// decoyBodies are the decoy training candidates: plausible but untargeted;
// training reduction should eliminate them (and, for exception-type
// windows, everything). Each is one instruction and an ecall.
var decoyBodies = [4][]isa.Item{
	isa.MustParse("add t0, t1, s2\necall"),
	isa.MustParse("sub t1, t0, s0\necall"),
	isa.MustParse("mul t2, t0, t1\necall"),
	isa.MustParse("andi t3, t0, 0xf\necall"),
}

// decoyNames and randNames are the fixed training-packet names.
var (
	decoyNames = [...]string{"decoy-0", "decoy-1"}
	randNames  = [...]string{"rand-0", "rand-1", "rand-2", "rand-3", "rand-4", "rand-5"}
)

// deriveTrainings implements the training derivation strategy: the scenario
// family's targeted training — whose instruction aligns with the trigger PC
// and whose control flow matches the transient window — plus two decoy
// candidates that the training-reduction step is expected to discard.
// Packets are appended to dst (typically a recycled slice).
func (g *Generator) deriveTrainings(dst []*swapmem.Packet, st *Stimulus, fam *scenario.Family, rng *rand.Rand) ([]*swapmem.Packet, error) {
	out := dst
	specs := fam.Trainings(g.trainSpecs[:0], st.Seed.params(), st.WindowLo)
	g.trainSpecs = specs
	for _, tr := range specs {
		p, err := g.trainingPacket(tr.Name, st, tr.Setup, tr.Body)
		if err != nil {
			return out, fmt.Errorf("gen: derived training: %w", err)
		}
		out = append(out, p)
	}
	order := [len(decoyBodies)]int{0, 1, 2, 3}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for i, name := range decoyNames {
		p, err := g.trainingPacket(name, st, nil, decoyBodies[order[i]])
		if err != nil {
			return out, fmt.Errorf("gen: derived training: %w", err)
		}
		out = append(out, p)
	}
	return out, nil
}

// Fixed items of the DejaVuzz* random trainings: the plain-ALU candidates
// (one is drawn per packet), the indirect jump, the call and the load's
// base-pointer setup.
var (
	randALU = isa.MustParse(`add t0, t1, t2
sub t3, t4, t5
mul t0, t0, t1
xor t2, t2, t3
andi t4, t5, 0x3f
sll t1, t1, t0`)
	randJumpA2  = isa.MustParse("jalr x0, 0(a2)")[0]
	randCall    = isa.Call(swapmem.SwapDoneAddr)
	randLoadPtr = isa.Li(isa.RegT1, swapmem.DataBase+0x200)
)

// randomTrainings implements DejaVuzz*: random instructions aligned to the
// trigger PC without any derivation from transient execution information.
// Packets are appended to dst (typically a recycled slice).
func (g *Generator) randomTrainings(dst []*swapmem.Packet, st *Stimulus, rng *rand.Rand, n int) []*swapmem.Packet {
	out := dst
	for i := 0; i < n; i++ {
		// Setup and body share one scratch: items [0, nSetup) are setup.
		sb := g.body[:0]
		nSetup := 0
		switch rng.Intn(8) {
		case 0: // random conditional branch, random small offset
			off := 8 + 4*rng.Intn(14)
			op := isa.OpBne
			if rng.Intn(2) == 0 {
				op = isa.OpBeq
			}
			sb = append(sb, isa.I(isa.Inst{Op: op, Imm: int64(off)}), ecallItem)
			// Landing pads so a taken branch terminates cleanly.
			for w := 8; w <= off; w += 4 {
				if w == off {
					sb = append(sb, ecallItem)
				} else {
					sb = append(sb, nopItem)
				}
			}
		case 1: // random indirect jump to a random aligned address past the body
			tgt := triggerAddr(st.Seed) + 8 + uint64(4*rng.Intn(64))
			sb = append(sb, isa.Li(isa.RegA2, int64(tgt)), randJumpA2, ecallItem)
			nSetup = 1
		case 2: // random call (pushes a random return address)
			sb = append(sb, randCall)
		case 3:
			sb = append(sb, randLoadPtr,
				isa.I(isa.Inst{Op: isa.OpLd, Rd: isa.RegT0, Rs1: isa.RegT1, Imm: int64(8 * rng.Intn(16))}),
				ecallItem)
			nSetup = 1
		default: // plain ALU
			sb = append(sb, randALU[rng.Intn(len(randALU))], ecallItem)
		}
		g.body = sb
		if p, err := g.trainingPacket(randNames[i], st, sb[:nSetup], sb[nSetup:]); err == nil {
			out = append(out, p)
		}
	}
	return out
}

// CompleteWindow implements Step 2.1: replace the dummy window with the
// secret-access and secret-encoding blocks, and derive window training.
func (g *Generator) CompleteWindow(st *Stimulus) (*Stimulus, error) {
	n := &Stimulus{}
	if err := g.CompleteWindowInto(n, st); err != nil {
		return nil, err
	}
	return n, nil
}

// CompleteWindowInto is CompleteWindow materialised into a caller-provided
// Stimulus (which must be distinct from st).
func (g *Generator) CompleteWindowInto(dst, st *Stimulus) error {
	fam, err := FamilyOf(st.Seed)
	if err != nil {
		return err // FamilyOf errors carry their own prefix
	}
	p := st.Seed.params()
	rng := g.buildRand(st.Seed.Rand ^ 0x5eed)
	// The encode block is retained on the stimulus (Phase 3 sanitisation
	// reads it), so it builds into the destination's own recycled buffer;
	// the access+encode window body is per-build scratch.
	encode := fam.Encode(dst.EncodeBlock[:0], p, rng)
	body := fam.Access(g.body[:0], p)
	body = append(body, encode...)
	g.body = body
	*dst = Stimulus{Seed: st.Seed, TriggerPC: st.TriggerPC, Transient: dst.Transient}
	if err := g.buildTransient(dst, fam, body); err != nil {
		return err
	}
	dst.TriggerTrains = st.TriggerTrains
	dst.EncodeBlock = encode
	dst.Completed = true

	// Window training: warm the secret's cache/TLB state before training.
	// Disambiguation-class windows additionally warm the pointer slot so
	// the speculative loads complete inside the (short) ordering window.
	dst.WindowTrains = windowTrains[0]
	if fam.Caps.WarmPointer {
		dst.WindowTrains = windowTrains[1]
	}
	return nil
}

// Sanitized rebuilds the transient packet with the encode block replaced by
// nops (Step 3.1's encode sanitisation).
func (g *Generator) Sanitized(st *Stimulus) (*Stimulus, error) {
	n := &Stimulus{}
	if err := g.SanitizedInto(n, st); err != nil {
		return nil, err
	}
	return n, nil
}

// SanitizedInto is Sanitized materialised into a caller-provided Stimulus
// (which must be distinct from st). The encode block is replaced by one nop
// per encode item, so a multi-word item (a `li`) leaves a narrower gap.
func (g *Generator) SanitizedInto(dst, st *Stimulus) error {
	fam, err := FamilyOf(st.Seed)
	if err != nil {
		return err // FamilyOf errors carry their own prefix
	}
	body := fam.Access(g.body[:0], st.Seed.params())
	body = appendNops(body, len(st.EncodeBlock))
	g.body = body
	*dst = Stimulus{Seed: st.Seed, TriggerPC: st.TriggerPC, Transient: dst.Transient}
	if err := g.buildTransient(dst, fam, body); err != nil {
		return err
	}
	dst.TriggerTrains = st.TriggerTrains
	dst.WindowTrains = st.WindowTrains
	dst.Completed = true
	return nil
}

// windowTrains are the two window-training sets: one packet that warms the
// secret into the data cache and TLBs, and ([1]) also the disambiguation
// pointer slot. They are seed-independent, so they are assembled once, at
// package init, and shared read-only across all shards and campaigns (each
// slice has capacity 1, so an append never writes into it).
var windowTrains = [2][]*swapmem.Packet{
	{buildWindowTrainPacket(false)},
	{buildWindowTrainPacket(true)},
}

func buildWindowTrainPacket(warmPtr bool) *swapmem.Packet {
	src := fmt.Sprintf("li t0, %#x\nld a1, 0(t0)\n", uint64(swapmem.SecretAddr))
	if warmPtr {
		src += fmt.Sprintf("li t0, %#x\nld a1, 0(t0)\n", uint64(swapmem.DataBase+0x300))
	}
	src += "ecall"
	img := isa.MustAsm(swapmem.SwapBase, src)
	return &swapmem.Packet{
		Name:       "window-train",
		Kind:       swapmem.PacketWindowTrain,
		Image:      img,
		Entry:      swapmem.SwapBase,
		TrainInsts: len(img.Words),
	}
}

// BuildSchedule assembles the swap schedule: window training first, then
// trigger training (optionally masked by `keep`), then — after the secret
// permission update for Meltdown-type seeds — the transient packet.
func (st *Stimulus) BuildSchedule(keep []bool) *swapmem.Schedule {
	return st.BuildScheduleInto(&swapmem.Schedule{}, keep)
}

// BuildScheduleInto is BuildSchedule materialised into a caller-provided
// schedule, reusing its step-slice capacity. The result is valid until the
// next build into the same schedule; swap runtimes never mutate a bound
// schedule, so one buffer per pipeline suffices.
func (st *Stimulus) BuildScheduleInto(sched *swapmem.Schedule, keep []bool) *swapmem.Schedule {
	sched.Steps = sched.Steps[:0]
	for _, p := range st.WindowTrains {
		sched.Append(p)
	}
	for i, p := range st.TriggerTrains {
		if keep != nil && (i >= len(keep) || !keep[i]) {
			continue
		}
		sched.Append(p)
	}
	if st.Seed.SecretFaults {
		sched.AppendWithPerm(st.Transient, swapmem.PermUpdate{Region: "dedicated", Perm: 0})
	} else {
		sched.Append(st.Transient)
	}
	return sched
}
