// Package dejavuzz is a pure-Go reproduction of "DejaVuzz: Disclosing
// Transient Execution Bugs with Dynamic Swappable Memory and Differential
// Information Flow Tracking Assisted Processor Fuzzing" (ASPLOS 2025).
//
// It provides a pre-silicon transient-execution-bug fuzzer built on two
// operating primitives:
//
//   - dynamic swappable memory (swapMem), which time-shares one address
//     space between training and transient instruction sequences, and
//   - differential information flow tracking (diffIFT), which gates control
//     taints on cross-instance differences to defeat control-flow
//     over-tainting.
//
// # Campaigns, sessions and targets
//
// A campaign is constructed with New from a registered target name and
// functional options, shorthands for the most-used knobs:
//
//	c, err := dejavuzz.New("boom",
//		dejavuzz.WithSeed(1),
//		dejavuzz.WithIterations(500),
//	)
//
// Every knob is a field of Options, the wire form dvz-server accepts, and
// Options.Campaign builds the same campaign from it:
//
//	c, err := dejavuzz.Options{Target: "boom", NoLiveness: true}.Campaign()
//
// Run executes it to completion and returns the Report. For long-running
// campaigns, Start returns a streaming Session instead: an event channel
// carrying Finding, Epoch, CheckpointSaved and Done events, all emitted at
// the engine's deterministic merge barriers. Cancelling the session's
// context (or calling Pause) stops the campaign at the next barrier and
// yields a resumable Checkpoint; a campaign resumed from it finishes with
// results identical to an uninterrupted run.
//
// Targets are pluggable designs under test. Three are built in — the two
// cycle-accurate out-of-order cores the paper evaluates ("boom",
// "xiangshan") and a cheap architectural differential pair ("isasim") —
// and more can be added with RegisterTarget.
package dejavuzz

import (
	"dejavuzz/internal/core"
	"dejavuzz/internal/gen"
	"dejavuzz/internal/scenario"

	// Register the "isasim" architectural differential target.
	_ "dejavuzz/internal/isadiff"
)

// Finding is a reported potential transient-execution vulnerability.
type Finding = core.Finding

// Seed is one structured stimulus specification — the unit of the corpus
// and of warm-start sets. Findings carry the Seed that produced them, and
// dvz-server's corpus store persists Seeds across campaigns.
type Seed = gen.Seed

// HarvestedSeed is one corpus-worthy seed surfaced at a merge barrier: a
// coverage-feedback keeper or finding producer together with its evidence.
// Epoch events carry the barrier's harvest in iteration order.
type HarvestedSeed = core.HarvestedSeed

// FamilyPrior is one scenario family's cross-campaign frontier evidence
// (picks, coverage points, findings), injected into a fresh campaign's
// scenario scheduler by WithWarmStart.
type FamilyPrior = scenario.Prior

// Report is the result of a fuzzing campaign.
type Report = core.Report

// ScenarioStat is one scenario family's cumulative campaign statistics
// (picks, coverage yield, findings, adaptive sampling weight), reported on
// every Epoch event and in the final Report.
type ScenarioStat = core.ScenarioStat

// ScenarioInfo describes one scenario family: its Table-3 trigger and
// window classes, the built-in targets that can observe its trigger, and
// its capability flags.
type ScenarioInfo = scenario.Info

// Scenarios returns the sorted names of every scenario family.
func Scenarios() []string { return scenario.Names() }

// ScenarioCatalog returns one ScenarioInfo per scenario family, sorted by
// name.
func ScenarioCatalog() []ScenarioInfo { return scenario.Catalog() }

// ScenarioCatalogTable renders the catalog as the canonical markdown table
// `dejavuzz -list-scenarios` prints and the README embeds.
func ScenarioCatalogTable() string { return scenario.CatalogTable() }

// Target is a pluggable design under test: it supplies the stimulus
// personality and the per-campaign iteration pipeline. See RegisterTarget.
type Target = core.Target

// DefaultTarget is the target New uses when callers have no preference.
const DefaultTarget = core.DefaultTarget

// RegisterTarget adds a target to the registry. It panics on an empty name
// or a duplicate registration.
func RegisterTarget(t Target) { core.RegisterTarget(t) }

// LookupTarget resolves a registered target by name.
func LookupTarget(name string) (Target, error) { return core.LookupTarget(name) }

// Targets returns the sorted names of all registered targets. Three are
// built in: "boom", "xiangshan" and "isasim".
func Targets() []string { return core.Targets() }
