package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"dejavuzz"
	"dejavuzz/internal/campaign"
	"dejavuzz/internal/gen"
	"dejavuzz/internal/uarch"
)

// WindowClass buckets trigger types the way Table 5 does.
func WindowClass(t gen.TriggerType) string {
	switch t {
	case gen.TrigAccessFault, gen.TrigPageFault, gen.TrigMisalign:
		return "mem-excp"
	case gen.TrigIllegal:
		return "illegal"
	case gen.TrigMemDisambig:
		return "mem-disamb"
	default:
		return "mispred"
	}
}

// Table5Row aggregates findings per (core, attack type).
type Table5Row struct {
	Core       uarch.CoreKind
	AttackType string
	Windows    map[string]bool
	Components map[string]bool
	Bugs       map[string]bool
	Count      int
}

// Table5Result is the bug-hunt outcome per core.
type Table5Result struct {
	Core uarch.CoreKind
	Rows map[string]*Table5Row // by attack type
	// FirstFinding is the campaign iteration of the first finding (-1 if
	// none).
	FirstFinding int
	Findings     int
}

// Table5 runs full DejaVuzz campaigns on both (bug-enabled) cores and
// classifies the discovered leaks by attack type, transient-window class and
// encoded/contended timing component — the paper's Table 5 matrix — along
// with mechanism witnesses for the five published bugs. The two per-core
// campaigns run as a campaign grid on r until ctx is cancelled. The error
// is non-nil only for checkpoint I/O failures and cancellation.
func Table5(ctx context.Context, w io.Writer, iterations int, seed int64, r campaign.Runner) ([]Table5Result, error) {
	results, runErr := runGrid(ctx, r, campaign.Matrix{
		Prefix: fmt.Sprintf("table5/i%d", iterations),
		Base:   dejavuzz.Options{Seed: seed, SeedSet: true, Iterations: iterations},
		Cores:  []string{"boom", "xiangshan"},
	})
	if results == nil {
		return nil, runErr
	}
	// A non-nil runErr past this point is a checkpoint-save failure or a
	// cancellation; completed campaigns still render, and the error is
	// surfaced alongside.

	var out []Table5Result
	for i, kind := range []uarch.CoreKind{uarch.KindBOOM, uarch.KindXiangShan} {
		rep := results[i].Report
		if rep == nil {
			continue // interrupted before this core's campaign finished
		}

		res := Table5Result{Core: kind, Rows: map[string]*Table5Row{}, FirstFinding: -1}
		if len(rep.Findings) > 0 {
			res.FirstFinding = rep.Findings[0].Iteration
		}
		for _, f := range rep.Findings {
			res.Findings++
			row := res.Rows[f.AttackType]
			if row == nil {
				row = &Table5Row{
					Core: kind, AttackType: f.AttackType,
					Windows: map[string]bool{}, Components: map[string]bool{}, Bugs: map[string]bool{},
				}
				res.Rows[f.AttackType] = row
			}
			row.Count++
			row.Windows[WindowClass(f.Window)] = true
			for _, c := range f.Components {
				row.Components[c] = true
			}
			for _, b := range f.BugLabels {
				row.Bugs[b] = true
			}
		}
		out = append(out, res)
	}

	fmt.Fprintln(w, "Table 5: Summary of discovered transient execution bugs")
	for _, r := range out {
		fmt.Fprintf(w, "\n[%v] findings=%d first-finding-iter=%d\n", r.Core, r.Findings, r.FirstFinding)
		var attacks []string
		for a := range r.Rows {
			attacks = append(attacks, a)
		}
		sort.Strings(attacks)
		for _, a := range attacks {
			row := r.Rows[a]
			fmt.Fprintf(w, "  %-10s windows=%v components=%v bug-witnesses=%v (n=%d)\n",
				a, keys(row.Windows), keys(row.Components), keys(row.Bugs), row.Count)
		}
	}
	return out, runErr
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// runGrid expands m and runs its cells on r.
func runGrid(ctx context.Context, r campaign.Runner, m campaign.Matrix) ([]campaign.Result, error) {
	specs, err := m.Expand()
	if err != nil {
		return nil, err
	}
	return r.Run(ctx, specs)
}
