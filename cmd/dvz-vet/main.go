// Command dvz-vet is the determinism multichecker: it runs the three
// dvz analyzers (mapiter, detsource, rngshare) that statically
// enforce the engine's byte-identity invariants, then folds a stock
// `go vet` pass into the same invocation so CI needs exactly one lint
// step.
//
// Usage:
//
//	go run ./cmd/dvz-vet [-novet] [-list] [packages]
//
// Packages default to ./... . Exit status is 0 when the tree is clean,
// 1 when any analyzer (or go vet) reported findings, 2 on load errors.
//
// Analyzer flags use the multichecker convention <analyzer>.<flag>, e.g.
//
//	go run ./cmd/dvz-vet -mapiter.scope='*' ./...
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"

	"golang.org/x/tools/go/analysis"

	"dejavuzz/internal/analysis/detsource"
	"dejavuzz/internal/analysis/driver"
	"dejavuzz/internal/analysis/mapiter"
	"dejavuzz/internal/analysis/rngshare"
)

func main() {
	os.Exit(run())
}

func run() int {
	analyzers := []*analysis.Analyzer{
		mapiter.Analyzer,
		detsource.Analyzer,
		rngshare.Analyzer,
	}

	novet := flag.Bool("novet", false, "skip the folded-in `go vet` pass")
	list := flag.Bool("list", false, "list the dvz analyzers and exit")
	for _, a := range analyzers {
		a.Flags.VisitAll(func(f *flag.Flag) {
			flag.Var(f.Value, a.Name+"."+f.Name, f.Usage)
		})
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	fset, pkgs, err := driver.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	diags, err := driver.Run(fset, pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, d := range diags {
		fmt.Printf("%s\n", d)
	}

	status := 0
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "dvz-vet: %d finding(s)\n", len(diags))
		status = 1
	}

	if !*novet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			if _, ok := err.(*exec.ExitError); !ok {
				fmt.Fprintf(os.Stderr, "dvz-vet: go vet: %v\n", err)
				return 2
			}
			if status == 0 {
				status = 1
			}
		}
	}
	return status
}
