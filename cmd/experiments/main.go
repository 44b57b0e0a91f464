// Command experiments regenerates the paper's tables and figures on the
// synthetic substrate and prints them as text artifacts.
//
// Usage:
//
//	experiments               # run the full battery at default scale
//	experiments -exp table1   # run one experiment
//	experiments -quick        # reduced scale (seconds per experiment)
//	experiments -list         # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"aovlis/internal/experiments"
)

func main() {
	var (
		expID   = flag.String("exp", "", "experiment id to run (default: all)")
		quick   = flag.Bool("quick", false, "use the reduced quick scale")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		seed    = flag.Int64("seed", 1, "global random seed")
		classes = flag.Int("classes", 0, "override d1 (e.g. 400 for the paper's feature dimensionality; the bound-filtering experiments need it)")
		epochs  = flag.Int("epochs", 0, "override the training epoch budget")
	)
	flag.Parse()

	registry := experiments.All()
	if *list {
		for _, e := range registry {
			fmt.Printf("%-18s %s\n", e.ID, e.Desc)
		}
		return
	}

	selected := registry
	if *expID != "" {
		selected = nil
		for _, e := range registry {
			if e.ID == *expID {
				selected = []experiments.Experiment{e}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "experiments: unknown id %q (use -list)\n", *expID)
			os.Exit(2)
		}
	}

	scale := experiments.DefaultScale()
	if *quick {
		scale = experiments.QuickScale()
	}
	scale.Seed = *seed
	if *classes > 0 {
		scale.Classes = *classes
	}
	if *epochs > 0 {
		scale.Epochs = *epochs
	}
	runner := experiments.NewRunner(scale)
	// Every experiment starts from the four datasets; a scale they cannot
	// be built at (a test stream that drew no anomaly) is reported once.
	if _, err := runner.Datasets(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, e := range selected {
		start := time.Now()
		out, err := e.Run(runner)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("=== %s — %s (%s) ===\n%s\n", e.ID, e.Desc, time.Since(start).Round(time.Millisecond), out.Render())
	}
}
