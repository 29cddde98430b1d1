package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dejavuzz/internal/campaign"
	"dejavuzz/internal/gen"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestTable2Golden pins the exact Table 2 output: the experiment harness
// must not silently drift from the paper's table format. Regenerate with
// `go test ./internal/experiments -run TestTable2Golden -update` after an
// intentional format or model change.
func TestTable2Golden(t *testing.T) {
	var buf bytes.Buffer
	Table2(&buf)
	path := filepath.Join("testdata", "table2.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want) {
		t.Errorf("Table 2 output drifted from golden file (run with -update if intentional)\n--- got ---\n%s--- want ---\n%s",
			buf.String(), want)
	}
}

// table3CellRe matches one rendered Table 3 cell: "fail", "TO", or
// "TO (ETO)" with one decimal place.
var table3CellRe = regexp.MustCompile(`^(fail|\d+\.\d|\d+\.\d \(\d+\.\d\))$`)

// TestTable3RowShape verifies the Table 3 rendering contract row by row:
// a core header per core, a column header naming all eight window types,
// and one row per fuzzer with exactly eight well-formed cells.
func TestTable3RowShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	Table3(&buf, 2, 123, campaign.Runner{})
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if lines[0] != "Table 3: Training overhead for different types of transient windows" {
		t.Fatalf("unexpected title %q", lines[0])
	}

	wantCols := make([]string, 0, int(gen.NumTriggerTypes))
	for _, tr := range gen.AllTriggerTypes() {
		wantCols = append(wantCols, shortTrig(tr))
	}

	rows := map[string][]string{} // core header -> fuzzer row names
	var section string
	for _, line := range lines[1:] {
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "["):
			section = line
			continue
		case strings.HasPrefix(line, "Fuzzer"):
			cols := strings.Fields(line)[1:]
			if strings.Join(cols, " ") != strings.Join(wantCols, " ") {
				t.Errorf("%s: column header %v, want %v", section, cols, wantCols)
			}
			continue
		}
		// A fuzzer row: fixed-width name column, then 8 fixed-width cells.
		name := strings.TrimRight(line[:12], " ")
		rows[section] = append(rows[section], name)
		rest := line[12:]
		var cells []string
		for len(rest) > 0 {
			w := 15
			if len(rest) < w {
				w = len(rest)
			}
			cells = append(cells, strings.TrimSpace(rest[:w]))
			rest = rest[w:]
		}
		if len(cells) != int(gen.NumTriggerTypes) {
			t.Errorf("%s/%s: %d cells, want %d: %q", section, name, len(cells), gen.NumTriggerTypes, line)
			continue
		}
		for i, c := range cells {
			if !table3CellRe.MatchString(c) {
				t.Errorf("%s/%s: malformed cell %d: %q", section, name, i, c)
			}
		}
	}

	if got := rows["[BOOM]"]; strings.Join(got, ",") != "DejaVuzz,DejaVuzz*,SpecDoctor" {
		t.Errorf("BOOM rows = %v, want DejaVuzz, DejaVuzz*, SpecDoctor", got)
	}
	if got := rows["[XiangShan]"]; strings.Join(got, ",") != "DejaVuzz,DejaVuzz*" {
		t.Errorf("XiangShan rows = %v, want DejaVuzz, DejaVuzz*", got)
	}
}

// TestTable3DeterministicOutput pins that the rendered table is identical
// across pool widths — the parallel rewiring must not change any cell.
func TestTable3DeterministicOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var seq, par bytes.Buffer
	Table3(&seq, 2, 77, campaign.Runner{})
	Table3(&par, 2, 77, campaign.Runner{Workers: 5})
	if seq.String() != par.String() {
		t.Errorf("Table 3 output differs across pool widths\n--- workers=1 ---\n%s--- workers=5 ---\n%s",
			seq.String(), par.String())
	}
}

// TestCampaignGridGolden pins the exact output of the two campaign-grid
// experiments: Table 5 at 40 iterations, then Figure 7 at 20 iterations
// over 2 trials, then Figure 7's CSV series. How the grid's cells are
// launched must not move a byte of either. Regenerate with
// `go test ./internal/experiments -run TestCampaignGridGolden -update`
// only after an intentional change to the campaigns themselves.
func TestCampaignGridGolden(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Table5(context.Background(), &buf, 40, 1, campaign.Runner{}); err != nil {
		t.Fatal(err)
	}
	series, err := Figure7(context.Background(), &buf, 20, 2, 1, campaign.Runner{})
	if err != nil {
		t.Fatal(err)
	}
	Figure7CSV(&buf, series)
	path := filepath.Join("testdata", "grid.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want) {
		t.Errorf("Table 5 / Figure 7 output drifted from golden file (run with -update if intentional)\n--- got ---\n%s--- want ---\n%s",
			buf.String(), want)
	}
}
