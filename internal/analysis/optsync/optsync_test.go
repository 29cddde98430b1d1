package optsync_test

import (
	"testing"

	"dejavuzz/internal/analysis/analyzertest"
	"dejavuzz/internal/analysis/optsync"
)

func setFlags(t *testing.T) {
	t.Helper()
	for flag, val := range map[string]string{
		"enginepkg": "optenginetest",
		"allowvar":  "optionsDeterminismIrrelevant",
	} {
		if err := optsync.Analyzer.Flags.Set(flag, val); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOptsyncEngine(t *testing.T) {
	setFlags(t)
	analyzertest.Run(t, optsync.Analyzer, "optenginetest")
}
