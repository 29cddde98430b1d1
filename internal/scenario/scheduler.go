package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Policy names the scenario-scheduling algorithm a campaign uses.
type Policy string

// PolicyUCB is the scheduling policy: a deterministic UCB1 bandit over
// each family's cumulative yield per pick. Every enabled family is tried
// before any is exploited, a family's score never decays without new
// evidence about it, and the optimism bonus grows for rarely-picked
// families — so no family ever starves.
const PolicyUCB Policy = "ucb"

// DefaultPolicy is the policy campaigns use when none is named.
const DefaultPolicy = PolicyUCB

// ParsePolicy validates a policy name; empty selects DefaultPolicy.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "":
		return DefaultPolicy, nil
	case string(PolicyUCB):
		return PolicyUCB, nil
	}
	return "", fmt.Errorf("scenario: unknown scheduler policy %q (want %q)", name, PolicyUCB)
}

// Scheduler yield-signal and exploration constants.
const (
	// findingBonus converts one finding into equivalent coverage points for
	// the yield signal (findings are the scarcer, higher-value event).
	findingBonus = 16.0
	// ucbExploration is the UCB1 optimism coefficient: a tried family's
	// exploration bonus is scale*sqrt(ucbExploration*ln(N+1)/n), where N is
	// the total pick count, n the family's own, and scale the best observed
	// mean yield (the reward-range normalisation UCB1's [0,1] analysis
	// assumes).
	ucbExploration = 2.0
)

// Yield is one family's observed outcome over an epoch: how often it was
// picked and what it returned.
type Yield struct {
	Picks    int
	Points   int
	Findings int
}

// Prior is one family's warm-start evidence: cross-campaign frontier
// statistics a corpus store accumulated for the family, injected into a
// fresh scheduler so it starts from what earlier campaigns on the same
// target learned instead of from uniform ignorance. A Prior is
// determinism-relevant input (it reshapes the pick stream), so the engine
// serialises it with the campaign options and refuses resumes that change
// it.
type Prior struct {
	Name     string `json:"name"`
	Picks    int    `json:"picks"`
	Points   int    `json:"points"`
	Findings int    `json:"findings"`
}

// priorPickCap bounds how many equivalent picks of evidence a prior may
// contribute per family. Frontier statistics can aggregate thousands of
// harvests; injected raw they would drown the first dozens of epochs of
// in-campaign evidence and crush the UCB exploration bonus. Capping the
// pick mass (scaling points/findings proportionally, in integer
// arithmetic so the seeding stays a pure function of the prior) keeps the
// prior an informed starting point the campaign can override quickly.
const priorPickCap = 16

// Scheduler is the adaptive scenario sampler one campaign shares across its
// shards. During an epoch it is read-only (Pick draws from frozen state
// using the caller's RNG, so shard streams stay deterministic and
// worker-independent); at every merge barrier the engine calls Update once
// with the epoch's merged per-family yield, in fixed order, so the
// scheduling trajectory is a pure function of the campaign's deterministic
// history — worker-count independence and cancel+resume byte-identity carry
// over.
type Scheduler struct {
	names []string // sorted

	// Cumulative posterior, parallel to names: total picks, coverage points
	// and findings per family since campaign start. Never decays — absence
	// of picks is absence of evidence, not evidence of absence.
	picks    []int
	points   []int
	findings []int
	total    int // sum of picks

	// weights is the sampling vector Pick draws from: UCB scores (mean
	// yield + exploration bonus), recomputed from the posterior at every
	// Update.
	weights []float64
	// means/bonuses decompose each family's score for reporting: posterior
	// mean yield per pick and the optimism term.
	means   []float64
	bonuses []float64
	// untried indexes families with zero cumulative picks. Pick draws
	// exclusively (and uniformly) from it while it is non-empty, so every
	// enabled family is tried before any is exploited; each merge barrier
	// removes the families the epoch reached, so in the worst case full
	// coverage takes families×(picks per epoch) iterations.
	untried []int
}

// NewScheduler returns a scheduler over the given families under the given
// policy (empty selects DefaultPolicy). It errors on an empty or duplicated
// family set and on an unknown policy — an empty set has nothing to pick
// and previously panicked inside Pick instead of failing at construction.
// Names are sorted internally; table or option order never matters.
func NewScheduler(families []string, policy Policy) (*Scheduler, error) {
	if _, err := ParsePolicy(string(policy)); err != nil {
		return nil, err
	}
	if len(families) == 0 {
		return nil, fmt.Errorf("scenario: scheduler needs at least one family")
	}
	names := append([]string(nil), families...)
	sort.Strings(names)
	for i := 1; i < len(names); i++ {
		if names[i] == names[i-1] {
			return nil, fmt.Errorf("scenario: duplicate family %q in scheduler set", names[i])
		}
	}
	s := &Scheduler{
		names:    names,
		picks:    make([]int, len(names)),
		points:   make([]int, len(names)),
		findings: make([]int, len(names)),
		weights:  make([]float64, len(names)),
		means:    make([]float64, len(names)),
		bonuses:  make([]float64, len(names)),
	}
	s.refresh()
	return s, nil
}

// NewSchedulerWithPrior returns a fresh scheduler whose posterior is
// seeded from cross-campaign frontier statistics (see Prior). Families
// with prior evidence start tried — forced exploration only applies to
// families no campaign has ever exercised — and their pick mass is capped
// at priorPickCap so in-campaign evidence overtakes the prior within a few
// epochs. Prior entries naming families outside the scheduler set are an
// error: the caller (the warm-start resolver) filters the frontier to the
// campaign's enabled families first, so a leftover name means the options
// and the prior drifted apart. Checkpoint resume builds the scheduler here
// too, then applies the campaign's cumulative yield in one Update.
func NewSchedulerWithPrior(families []string, policy Policy, prior []Prior) (*Scheduler, error) {
	s, err := NewScheduler(families, policy)
	if err != nil {
		return nil, err
	}
	for _, p := range prior {
		idx := -1
		for i, n := range s.names {
			if n == p.Name {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("scenario: prior names family %q outside the scheduler set", p.Name)
		}
		if p.Picks < 0 || p.Points < 0 || p.Findings < 0 {
			return nil, fmt.Errorf("scenario: prior for family %q has negative counts", p.Name)
		}
		picks, points, findings := p.Picks, p.Points, p.Findings
		if picks > priorPickCap {
			// Integer scaling keeps the seeding a pure function of the prior.
			points = points * priorPickCap / picks
			findings = findings * priorPickCap / picks
			picks = priorPickCap
		}
		s.picks[idx] += picks
		s.points[idx] += points
		s.findings[idx] += findings
		s.total += picks
	}
	s.refresh()
	return s, nil
}

// Names returns the scheduler's families, sorted.
func (s *Scheduler) Names() []string { return append([]string(nil), s.names...) }

// Pick draws one family name using the caller's RNG (each campaign shard
// passes its own deterministic stream). While any family has never been
// picked, the draw is uniform over exactly those — forced exploration — and
// only afterwards score-proportional.
func (s *Scheduler) Pick(rng *rand.Rand) string {
	if len(s.names) == 1 {
		return s.names[0]
	}
	if len(s.untried) > 0 {
		return s.names[s.untried[rng.Intn(len(s.untried))]]
	}
	total := 0.0
	for _, w := range s.weights {
		total += w
	}
	r := rng.Float64() * total
	for i, w := range s.weights {
		r -= w
		if r < 0 {
			return s.names[i]
		}
	}
	return s.names[len(s.names)-1]
}

// Probe returns one family's current sampling weight, posterior mean yield
// per pick, and exploration bonus (all zero if the family is not
// scheduled). Weight is mean+bonus.
func (s *Scheduler) Probe(name string) (weight, mean, bonus float64) {
	for i, n := range s.names {
		if n == name {
			return s.weights[i], s.means[i], s.bonuses[i]
		}
	}
	return 0, 0, 0
}

// Update folds one epoch's merged per-family yield into the cumulative
// posterior, then recomputes the UCB scores from it. A family absent from
// the epoch's yield keeps its posterior untouched — no evidence, no change
// (its score can only grow, via the bonus), so it cannot starve. Update
// must only be called at merge barriers (no Pick concurrently). Updates
// compose: one Update of several epochs' summed yield leaves the scheduler
// exactly as one Update per epoch does, which is how checkpoint resume
// rebuilds it.
func (s *Scheduler) Update(yield map[string]Yield) {
	for i, n := range s.names {
		y := yield[n]
		s.picks[i] += y.Picks
		s.points[i] += y.Points
		s.findings[i] += y.Findings
		s.total += y.Picks
	}
	s.refresh()
}

// refresh derives means, bonuses, UCB weights and the untried set from the
// cumulative posterior. It is a pure function of the posterior's integers,
// which is what makes Updates compose.
func (s *Scheduler) refresh() {
	scale := 1.0
	for i := range s.names {
		if s.picks[i] == 0 {
			s.means[i] = 0
			continue
		}
		s.means[i] = (float64(s.points[i]) + findingBonus*float64(s.findings[i])) / float64(s.picks[i])
		if s.means[i] > scale {
			scale = s.means[i]
		}
	}
	logN := math.Log(float64(s.total) + 1)
	s.untried = s.untried[:0]
	for i := range s.names {
		if n := s.picks[i]; n > 0 {
			s.bonuses[i] = scale * math.Sqrt(ucbExploration*logN/float64(n))
		} else {
			// Untried families are picked with absolute priority (see Pick).
			// The exported bonus is an upper bound on every tried family's
			// score — mean ≤ scale and bonus ≤ scale*sqrt(2·lnN) there — so
			// the weight column also reflects that priority.
			s.untried = append(s.untried, i)
			s.bonuses[i] = scale * (1 + math.Sqrt(ucbExploration*logN))
		}
		s.weights[i] = s.means[i] + s.bonuses[i]
	}
}
