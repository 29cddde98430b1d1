package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// smoke runs one workload at smoke size and returns its report and exit
// code.
func smoke(t *testing.T, name string, trace, corrupt bool) (*report, int) {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{workload: name, seed: 7, trace: trace, smoke: true, corruptDigest: corrupt, outDir: t.TempDir()}
	code := execute(e, w, io.Discard)
	return e.rep, code
}

// TestSmokeEmitsEveryMetric runs every workload at smoke size, untraced
// and traced, and checks that each passes its correctness checks and emits
// exactly the metrics BENCHMARK.json names, with their units. Every
// workload BENCHMARK.json lists must exist; xiangshan-parallel runs by name
// but is not listed (see README.md).
func TestSmokeEmitsEveryMetric(t *testing.T) {
	b := readBenchmark(t)
	for _, w := range b.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Fatalf("BENCHMARK.json: %v", err)
		}
	}
	for _, w := range workloads {
		name := w.name
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			rep, code := smoke(t, name, trace, false)
			if code != 0 || !rep.correct() {
				t.Errorf("%s trace=%t: exit %d, checks %+v", name, trace, code, rep.Checks)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json names %d", name, trace, len(rep.Metrics), len(want))
			}
			for n, unit := range want {
				m, ok := rep.Metrics[n]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s missing", name, trace, n)
				case m.Unit != unit:
					t.Errorf("%s trace=%t: metric %s has unit %q, want %q", name, trace, n, m.Unit, unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, m.Value)
				}
			}
			if rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s trace=%t: attempted %d, failed %d", name, trace, rep.Attempted, rep.Failed)
			}
		}
	}
}

// TestForcedDigestMismatchFails checks that every workload's correctness
// check catches a report that differs from its reference.
func TestForcedDigestMismatchFails(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, code := smoke(t, w.name, trace, true)
			if code == 0 || rep.correct() {
				t.Errorf("%s trace=%t: a forced digest mismatch passed (exit %d)", w.name, trace, code)
			}
		}
	}
}
