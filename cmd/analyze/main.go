// Command analyze runs the repository's determinism & invariant analyzer
// suite (internal/analysis: detorder, walltime, walpath, guarded) over the
// packages its arguments match:
//
//	go run ./cmd/analyze ./...
//
// Exit status: 0 clean, 1 operational error, 2 diagnostics reported.
package main

import (
	"flag"
	"fmt"
	"os"

	"robuststore/internal/analysis"
	"robuststore/internal/analysis/detorder"
	"robuststore/internal/analysis/guarded"
	"robuststore/internal/analysis/walltime"
	"robuststore/internal/analysis/walpath"
)

// suite is every analyzer the tool runs.
var suite = []*analysis.Analyzer{
	detorder.Analyzer,
	walltime.Analyzer,
	walpath.Analyzer,
	guarded.Analyzer,
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: analyze [packages...]\n\nAnalyzers:\n")
		for _, a := range suite {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	os.Exit(run(flag.Args()))
}

// run loads the given patterns with the go command, runs the whole suite
// over every matched package and prints each diagnostic to stderr.
func run(patterns []string) int {
	pkgs, err := analysis.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	status := 0
	for _, pkg := range pkgs {
		for _, a := range suite {
			diags, err := analysis.Run(a, pkg)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			for _, d := range diags {
				fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
				status = 2
			}
		}
	}
	return status
}
