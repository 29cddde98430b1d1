package gen

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"dejavuzz/internal/isa"
	"dejavuzz/internal/isasim"
	"dejavuzz/internal/scenario"
	"dejavuzz/internal/swapmem"
	"dejavuzz/internal/uarch"
)

func TestBuildStimulusAllTriggers(t *testing.T) {
	g := New(1)
	for _, kind := range []uarch.CoreKind{uarch.KindBOOM, uarch.KindXiangShan} {
		for _, trig := range AllTriggerTypes() {
			seed := g.SeedFor(kind, trig, VariantDerived)
			st, err := g.BuildStimulus(seed)
			if err != nil {
				t.Fatalf("%v/%v: %v", kind, trig, err)
			}
			if st.Transient == nil {
				t.Fatalf("%v/%v: no transient packet", kind, trig)
			}
			if st.WindowLo <= st.TriggerPC || st.WindowHi <= st.WindowLo {
				t.Errorf("%v/%v: window [%#x,%#x) vs trigger %#x",
					kind, trig, st.WindowLo, st.WindowHi, st.TriggerPC)
			}
			if st.TriggerPC != swapmem.SwapBase+4*uint64(seed.TriggerOff) {
				t.Errorf("%v/%v: trigger pc %#x", kind, trig, st.TriggerPC)
			}
			// The image must fit the swappable region.
			if st.Transient.Image.Size() > swapmem.SwapSize {
				t.Errorf("%v/%v: image too large", kind, trig)
			}
		}
	}
}

func TestDerivedTrainingAligned(t *testing.T) {
	g := New(3)
	for _, trig := range []TriggerType{TrigBranchMispred, TrigJumpMispred, TrigReturnMispred} {
		seed := g.SeedFor(uarch.KindBOOM, trig, VariantDerived)
		st, err := g.BuildStimulus(seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.TriggerTrains) < 3 {
			t.Fatalf("%v: %d training packets, want targeted + decoys", trig, len(st.TriggerTrains))
		}
		// The targeted packet's training body starts at the trigger PC:
		// the image from there on is the family's training body assembled
		// at the trigger PC.
		p := st.TriggerTrains[0]
		checkTrainAligned(t, p, st.TriggerPC)
		fam, err := FamilyOf(seed)
		if err != nil {
			t.Fatal(err)
		}
		tr := fam.Trainings(nil, seed.params(), st.WindowLo)[0]
		body, err := isa.Assemble(st.TriggerPC, append([]isa.Item{isa.Label("trainpc")}, tr.Body...))
		if err != nil {
			t.Fatal(err)
		}
		if at := (st.TriggerPC - p.Image.Base) / 4; !slices.Equal(p.Image.Words[at:], body.Words) {
			t.Errorf("%v: image from the trigger PC is not the training body", trig)
		}
		if p.PadInsts == 0 {
			t.Errorf("%v: no alignment padding", trig)
		}
		if p.TrainInsts == 0 {
			t.Errorf("%v: no training instructions counted", trig)
		}
	}
}

func TestRandomTrainingsAligned(t *testing.T) {
	g := New(5)
	seed := g.SeedFor(uarch.KindBOOM, TrigBranchMispred, VariantRandom)
	st, err := g.BuildStimulus(seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.TriggerTrains) != 6 {
		t.Fatalf("%d random candidates, want 6", len(st.TriggerTrains))
	}
	for _, p := range st.TriggerTrains {
		checkTrainAligned(t, p, st.TriggerPC)
	}
}

// checkTrainAligned checks that a training packet's body starts at pc: the
// PadInsts words just below pc are its alignment nops, bounded by non-nop
// words on both sides (a setup never ends, and a training body never
// starts, with a nop), and the training instructions are every word but
// the padding.
func checkTrainAligned(t *testing.T, p *swapmem.Packet, pc uint64) {
	t.Helper()
	w := p.Image.Words
	at, pad := int((pc-p.Image.Base)/4), p.PadInsts
	if at < pad || at >= len(w) {
		t.Errorf("%s: trigger pc %#x outside the image or its padding", p.Name, pc)
		return
	}
	for k := at - pad; k < at; k++ {
		if w[k] != isa.NopWord {
			t.Errorf("%s: word %d below the trigger pc is %#08x, not padding", p.Name, k, w[k])
		}
	}
	if w[at] == isa.NopWord || (at > pad && w[at-pad-1] == isa.NopWord) {
		t.Errorf("%s: training body misaligned: padding run does not end at %#x", p.Name, pc)
	}
	if p.TrainInsts != len(w)-pad {
		t.Errorf("%s: TrainInsts %d, want %d", p.Name, p.TrainInsts, len(w)-pad)
	}
}

func TestCompleteWindowAndSanitize(t *testing.T) {
	g := New(7)
	seed := g.SeedFor(uarch.KindBOOM, TrigPageFault, VariantDerived)
	seed.EncodeOps = 2
	st, err := g.BuildStimulus(seed)
	if err != nil {
		t.Fatal(err)
	}
	cst, err := g.CompleteWindow(st)
	if err != nil {
		t.Fatal(err)
	}
	if !cst.Completed || len(cst.EncodeBlock) == 0 {
		t.Fatal("window not completed")
	}
	if len(cst.WindowTrains) == 0 {
		t.Fatal("no window training derived")
	}
	// Same trigger placement as phase 1.
	if cst.TriggerPC != st.TriggerPC || cst.WindowLo != st.WindowLo {
		t.Fatal("completion moved the trigger/window")
	}

	sst, err := g.Sanitized(cst)
	if err != nil {
		t.Fatal(err)
	}
	// Sanitised image has the same size but nops where the encode block was.
	if len(sst.Transient.Image.Words) != len(cst.Transient.Image.Words) {
		t.Fatalf("sanitised image size %d != %d",
			len(sst.Transient.Image.Words), len(cst.Transient.Image.Words))
	}
	diff := 0
	for i := range sst.Transient.Image.Words {
		if sst.Transient.Image.Words[i] != cst.Transient.Image.Words[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("sanitisation changed nothing")
	}
}

func TestMaskedAccessBlock(t *testing.T) {
	masked := isa.MustAsm(0, "li t0, 0x8000000000002000\nld s0, 0(t0)").Words
	block := func(s Seed) []uint32 {
		fam, err := FamilyOf(s)
		if err != nil {
			t.Fatal(err)
		}
		p, err := isa.Assemble(0, fam.Access(nil, s.params()))
		if err != nil {
			t.Fatal(err)
		}
		return p.Words
	}
	seed := Seed{Scenario: scenario.ByTrigger(TrigAccessFault).Name, Trigger: TrigAccessFault, MaskHigh: true}
	if got := block(seed); !slices.Equal(got, masked) {
		t.Fatalf("masked access block %#x does not load through the illegal address (%#x)", got, masked)
	}
	seed.MaskHigh = false
	if slices.Equal(block(seed), masked) {
		t.Fatal("unmasked access block uses illegal address")
	}
}

func TestScheduleComposition(t *testing.T) {
	g := New(9)
	seed := g.SeedFor(uarch.KindBOOM, TrigBranchMispred, VariantDerived)
	seed.SecretFaults = true
	st, _ := g.BuildStimulus(seed)
	cst, _ := g.CompleteWindow(st)

	keep := make([]bool, len(cst.TriggerTrains))
	keep[0] = true // only the targeted packet
	sched := cst.BuildSchedule(keep)

	// window trains, one trigger train, transient.
	want := len(cst.WindowTrains) + 1 + 1
	if len(sched.Steps) != want {
		t.Fatalf("schedule has %d steps, want %d", len(sched.Steps), want)
	}
	last := sched.Steps[len(sched.Steps)-1]
	if last.Packet.Kind != swapmem.PacketTransient {
		t.Fatal("transient packet not last")
	}
	if len(last.PrePerm) == 0 {
		t.Fatal("SecretFaults seed lost its permission update")
	}
	// Window trains come first (before trigger training).
	if sched.Steps[0].Packet.Kind != swapmem.PacketWindowTrain {
		t.Fatal("window training not scheduled first")
	}
}

// TestMutateAlwaysChanges is the regression test for the wasted-iteration
// bug: re-rolling a field with rng.Intn used to be able to return the input
// seed unchanged. Every structured mutation operator must now change its
// target field, so no feedback iteration ever replays its own input.
func TestMutateAlwaysChanges(t *testing.T) {
	g := New(11)
	for trial := 0; trial < 64; trial++ {
		s := g.RandomSeed(uarch.KindXiangShan)
		s.Variant = VariantRandom
		for i := 0; i < 64; i++ {
			m := g.Mutate(s)
			if m.Core != s.Core {
				t.Fatal("mutation changed the core")
			}
			if m.Variant != s.Variant {
				t.Fatal("mutation changed the variant")
			}
			if m == s {
				t.Fatalf("mutation returned the input seed unchanged: %+v", s)
			}
		}
	}
	// Families with a dedicated encode block never read Seed.Encoder, so a
	// mutant differing only in Encoder would rebuild a byte-identical
	// stimulus — the operator must redirect for them.
	s, err := g.SeedScenario(uarch.KindBOOM, "cache-occupancy")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		m := g.Mutate(s)
		e := m
		e.Encoder = s.Encoder
		if e == s {
			t.Fatalf("own-encoder family mutated only Encoder (a stimulus no-op): %+v -> %+v", s, m)
		}
	}
	// Dead flags are excluded per family: StoreFlavor for families whose
	// layout never reads it, MaskHigh under a dedicated access block.
	s, err = g.SeedScenario(uarch.KindBOOM, "branch-mispredict")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		m := g.Mutate(s)
		e := m
		e.StoreFlavor = s.StoreFlavor
		if e == s {
			t.Fatalf("branch family mutated only StoreFlavor (a stimulus no-op)")
		}
	}
	s, err = g.SeedScenario(uarch.KindBOOM, "mem-disambig")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		m := g.Mutate(s)
		e := m
		e.MaskHigh, e.StoreFlavor = s.MaskHigh, s.StoreFlavor
		if e == s {
			t.Fatalf("own-access family mutated only MaskHigh/StoreFlavor (a stimulus no-op)")
		}
	}
}

// TestBuildRejectsMalformedSeeds: hand-crafted seeds (repro JSON,
// checkpoints, warm-start sets) that name no family or an unknown one, a
// trigger that is not the family's class or an out-of-range knob must
// error, naming the field, and never panic.
func TestBuildRejectsMalformedSeeds(t *testing.T) {
	g := New(1)
	ok := Seed{Core: uarch.KindBOOM, Scenario: "page-fault", Trigger: TrigPageFault, TriggerOff: 70, WindowLen: 5, EncodeOps: 1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("well-formed seed refused: %v", err)
	}
	for _, c := range []struct {
		field string
		edit  func(*Seed)
	}{
		{"Scenario", func(s *Seed) { s.Scenario, s.Trigger = "", 99 }},
		{"Scenario", func(s *Seed) { s.Scenario, s.Trigger = "", -1 }},
		{"Scenario", func(s *Seed) { s.Scenario = "no-such-family" }},
		{"Trigger", func(s *Seed) { s.Trigger = TrigBranchMispred }},
		{"Core", func(s *Seed) { s.Core = 2 }},
		{"Variant", func(s *Seed) { s.Variant = -1 }},
		{"TriggerOff", func(s *Seed) { s.TriggerOff = 59 }},
		{"TriggerOff", func(s *Seed) { s.TriggerOff = 110 }},
		{"WindowLen", func(s *Seed) { s.WindowLen = -4095 }},
		{"WindowLen", func(s *Seed) { s.WindowLen = 12 }},
		{"EncodeOps", func(s *Seed) { s.EncodeOps = 0 }},
		{"EncodeOps", func(s *Seed) { s.EncodeOps = 5 }},
		{"Encoder", func(s *Seed) { s.Encoder = -1 }},
		{"Encoder", func(s *Seed) { s.Encoder = scenario.NumEncoders() + 1 }},
	} {
		seed := ok
		c.edit(&seed)
		_, err := g.BuildStimulus(seed)
		if err == nil {
			t.Errorf("malformed seed %+v built a stimulus", seed)
		} else if !strings.Contains(err.Error(), c.field) {
			t.Errorf("refusal of %+v does not name %s: %v", seed, c.field, err)
		}
	}
}

// TestMutateRespectsScenarioFilter pins the swap-scenario operator to the
// generator's enabled family set (the campaign's -scenarios filter).
func TestMutateRespectsScenarioFilter(t *testing.T) {
	g := New(13)
	enabled := []string{"branch-mispredict", "cache-occupancy"}
	g.SetScenarios(enabled)
	s, err := g.SeedScenario(uarch.KindBOOM, "branch-mispredict")
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	for _, n := range enabled {
		allowed[n] = true
	}
	for i := 0; i < 256; i++ {
		s = g.Mutate(s)
		if !allowed[s.Scenario] {
			t.Fatalf("mutation left the enabled scenario set: %q", s.Scenario)
		}
	}
	// A single-family filter must never attempt (and cannot perform) a swap.
	g.SetScenarios([]string{"page-fault"})
	s, err = g.SeedScenario(uarch.KindBOOM, "page-fault")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		s = g.Mutate(s)
		if s.Scenario != "page-fault" {
			t.Fatalf("single-family mutation swapped scenario to %q", s.Scenario)
		}
	}
}

// TestShardStreams checks the splittable RNG contract: shard streams are
// stable across calls and decorrelated across shard ids and campaign seeds.
func TestShardStreams(t *testing.T) {
	if ShardSeed(1, 0) != ShardSeed(1, 0) {
		t.Fatal("shard seed derivation is not stable")
	}
	seen := map[int64]string{}
	for campaign := int64(1); campaign <= 4; campaign++ {
		for shard := 0; shard < 16; shard++ {
			s := ShardSeed(campaign, shard)
			if prev, dup := seen[s]; dup {
				t.Fatalf("shard seed collision: (c=%d,s=%d) and %s", campaign, shard, prev)
			}
			seen[s] = fmt.Sprintf("(c=%d,s=%d)", campaign, shard)
		}
	}
	// Generators from different shards of one campaign must diverge
	// immediately in practice (not a hard RNG guarantee, but a regression
	// canary for the mixing function).
	a := NewEpochShard(7, 0, 0).RandomSeed(uarch.KindBOOM)
	b := NewEpochShard(7, 1, 0).RandomSeed(uarch.KindBOOM)
	if a == b {
		t.Error("shards 0 and 1 drew identical first seeds")
	}
	// And the same shard must reproduce its stream exactly.
	c := NewEpochShard(7, 0, 0).RandomSeed(uarch.KindBOOM)
	if a != c {
		t.Error("shard 0 stream is not reproducible")
	}
}

// TestArchPathTerminates verifies on the ISA golden model that every
// generated transient packet's architectural path ends in a trap (ecall or
// the intended trigger exception) rather than running away.
func TestArchPathTerminates(t *testing.T) {
	g := New(13)
	for _, trig := range AllTriggerTypes() {
		seed := g.SeedFor(uarch.KindBOOM, trig, VariantDerived)
		st, err := g.BuildStimulus(seed)
		if err != nil {
			t.Fatal(err)
		}
		cst, err := g.CompleteWindow(st)
		if err != nil {
			t.Fatal(err)
		}
		space := swapmem.NewSpace([]byte{9, 9, 9, 9, 9, 9, 9, 9})
		img := cst.Transient.Image
		space.WriteRaw(img.Base, img.Bytes())
		sim := isasim.New(space, cst.Transient.Entry)
		sim.Run(10000)
		if sim.LastTrap == nil {
			t.Errorf("%v: architectural path never trapped (pc=%#x)", trig, sim.PC)
		}
	}
}
