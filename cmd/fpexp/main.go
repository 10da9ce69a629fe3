// Command fpexp runs the paper-reproduction experiments and prints the
// series each figure of the paper plots.
//
// Usage:
//
//	fpexp -list
//	fpexp -exp fig7
//	fpexp -exp all -quick
//	fpexp -exp fig5a -csv > fig5a.csv
//	fpexp -exp fig8 -plot
//	fpexp -exp fig11 -procs 8    # parallel marginal-gain workers
//
// Experiment ids are fig1–fig11, prop1 and the abl-* ablations;
// `fpexp -list` prints them all.
package main

import (
	"fmt"
	"os"

	"repro/internal/cli"
)

func main() {
	if err := cli.RunFpexp(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "fpexp: %v\n", err)
		os.Exit(1)
	}
}
