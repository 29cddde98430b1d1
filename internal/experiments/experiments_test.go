package experiments

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"dejavuzz/internal/campaign"
	"dejavuzz/internal/core"
	"dejavuzz/internal/gen"
	"dejavuzz/internal/uarch"
)

// TestPoCsTriggerWindows checks every hand-written attack opens its window
// on BOOM.
func TestPoCsTriggerWindows(t *testing.T) {
	cfg := uarch.BOOMConfig()
	for _, poc := range AllPoCs() {
		run := core.RunSingle(poc.Schedule.Clone(), core.RunOpts{Cfg: cfg})
		ws := run.Core.Trace.WindowSince(poc.WindowLo, poc.WindowHi, run.RT.TransientStart())
		if !ws.Triggered() {
			t.Errorf("%s: window not triggered (%+v)", poc.Name, ws)
		}
	}
}

// TestFigure6Shapes checks the taint-explosion ordering the paper reports:
// CellIFT explodes, diffIFT stays bounded, diffIFT_FN stays at or below
// diffIFT (control taints suppressed).
func TestFigure6Shapes(t *testing.T) {
	series := Figure6(io.Discard, 4000)
	byKey := map[string]Figure6Series{}
	for _, s := range series {
		byKey[s.Attack+"/"+s.Mode] = s
	}
	for _, poc := range AllPoCs() {
		cell := byKey[poc.Name+"/CellIFT"]
		diff := byKey[poc.Name+"/diffIFT"]
		fn := byKey[poc.Name+"/diffIFT_FN"]
		if diff.Peak() == 0 {
			t.Errorf("%s: diffIFT tracked no taint", poc.Name)
		}
		if cell.Peak() < diff.Peak() {
			t.Errorf("%s: CellIFT peak %d below diffIFT peak %d (no over-tainting?)",
				poc.Name, cell.Peak(), diff.Peak())
		}
		if fn.Peak() > diff.Peak() {
			t.Errorf("%s: diffIFT_FN peak %d exceeds diffIFT peak %d",
				poc.Name, fn.Peak(), diff.Peak())
		}
	}
	// The explosion must be dramatic on at least one attack (Figure 6 shows
	// CellIFT saturating orders of magnitude above diffIFT).
	exploded := false
	for _, poc := range AllPoCs() {
		if byKey[poc.Name+"/CellIFT"].Peak() > 4*byKey[poc.Name+"/diffIFT"].Peak() {
			exploded = true
		}
	}
	if !exploded {
		t.Error("no attack shows the CellIFT taint explosion")
	}
}

func TestTable2Renders(t *testing.T) {
	var buf bytes.Buffer
	Table2(&buf)
	out := buf.String()
	for _, want := range []string{"SmallBOOM", "MinimalXiangShan", "Annotation LoC"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 output missing %q", want)
		}
	}
}

// TestTable3Shape runs a reduced Table 3 and verifies the qualitative cells:
// DejaVuzz triggers everything (except BOOM illegal), zero ETO for exception
// windows, SpecDoctor limited to four types with ~125 overhead.
func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	results := Table3(&buf, 3, 99, campaign.Runner{})
	for _, res := range results {
		dv := res.Rows["DejaVuzz"]
		for _, tr := range gen.AllTriggerTypes() {
			cell := dv[tr]
			wantFail := res.Core == uarch.KindBOOM && tr == gen.TrigIllegal
			if cell.Triggerable == wantFail {
				t.Errorf("%v/%v: triggerable=%v", res.Core, tr, cell.Triggerable)
			}
			if cell.Triggerable && tr.Squash() == uarch.SquashException && cell.ETO != 0 {
				t.Errorf("%v/%v: exception ETO=%.1f, want 0", res.Core, tr, cell.ETO)
			}
		}
		if res.Core == uarch.KindBOOM {
			sd := res.Rows["SpecDoctor"]
			for _, tr := range []gen.TriggerType{gen.TrigAccessFault, gen.TrigMisalign, gen.TrigIllegal, gen.TrigReturnMispred} {
				if sd[tr].Triggerable {
					t.Errorf("SpecDoctor claims %v", tr)
				}
			}
		}
	}
}

func TestTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := Table4(io.Discard, 2*time.Second, 6000, nil)
	for _, r := range res {
		if !r.CellIFTTimeout && r.CompileCellIFT < r.CompileDiffIFT {
			t.Errorf("%v: CellIFT compile %v faster than diffIFT %v", r.Core, r.CompileCellIFT, r.CompileDiffIFT)
		}
		for name, times := range r.SimTimes {
			if times[1] < times[0] {
				t.Errorf("%v/%s: CellIFT sim %v faster than base %v", r.Core, name, times[1], times[0])
			}
		}
	}
}

func TestLivenessShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := Liveness(io.Discard, 20, 5)
	if res.Positives == 0 {
		t.Fatal("no SpecDoctor positives collected")
	}
	if res.RealLeaks == 0 {
		t.Error("no real leaks identified")
	}
	if res.RealLeaks >= res.Positives {
		t.Error("liveness analysis rejected no false positives")
	}
	if res.NoLivenessFlagged < res.RealLeaks {
		t.Error("no-liveness ablation flags fewer cases than liveness analysis")
	}
}
