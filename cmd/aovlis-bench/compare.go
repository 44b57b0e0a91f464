package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareMain implements `aovlis-bench compare BASE... -- NEW...` (with no
// "--", the first file is the base and the rest are the new side). The files
// are -out documents of same-seed runs; each metric is judged against its
// same-seed bound (spec.go). It returns the exit code: 1 on any `worse` or
// `missing` row or a higher failed_share, 2 on a usage error.
func compareMain(args []string, w io.Writer) int {
	var base, fresh []string
	split := false
	for _, a := range args {
		switch {
		case a == "--":
			split = true
		case split:
			fresh = append(fresh, a)
		default:
			base = append(base, a)
		}
	}
	if !split && len(base) > 1 {
		base, fresh = base[:1], base[1:]
	}
	if len(base) == 0 || len(fresh) == 0 {
		fmt.Fprintln(w, "usage: aovlis-bench compare BASE.json... -- NEW.json...")
		return 2
	}
	baseDocs, err := readDocs(base)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	freshDocs, err := readDocs(fresh)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	return compareDocs(w, endToEnd, baseDocs, freshDocs)
}

func readJSON(path string, v interface{}) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func readDocs(paths []string) ([]document, error) {
	docs := make([]document, len(paths))
	for i, p := range paths {
		if err := readJSON(p, &docs[i]); err != nil {
			return nil, err
		}
	}
	return docs, nil
}

// side is one side's values of one (workload, metric): how many of its
// files have one, their median and largest, and the distance between their
// extremes as a share of the median.
type side struct {
	n                   int
	median, max, spread float64
}

func sideOf(docs []document, workload string, pick func(*runResult) (float64, bool)) side {
	var v []float64
	for _, d := range docs {
		if r := d.Workloads[workload]; r != nil && r.EndToEnd != nil {
			if x, ok := pick(r.EndToEnd); ok {
				v = append(v, x)
			}
		}
	}
	if len(v) == 0 {
		return side{}
	}
	s := sortedCopy(v)
	sd := side{n: len(s), median: median(s), max: s[len(s)-1]}
	if sd.median != 0 {
		sd.spread = (s[len(s)-1] - s[0]) / sd.median
	}
	return sd
}

// verdict judges one metric: worsening is the new median's move in the bad
// direction as a share of the base median. A side whose own files disagree
// by more than the bound cannot resolve a difference of that size.
func verdict(d metricDef, base, fresh side) (worsening float64, word string) {
	if base.median != 0 {
		worsening = (fresh.median - base.median) / base.median
	}
	if d.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case base.spread > d.SameSeed || fresh.spread > d.SameSeed:
		return worsening, "unresolved"
	case worsening > d.SameSeed:
		return worsening, "worse"
	default:
		return worsening, "ok"
	}
}

// compareDocs prints one row per (workload, metric) the base side has and
// returns the exit code. What the base measured and a new file did not is
// `missing`, which fails like `worse`: a run that dropped a workload has
// not shown it unharmed. failed_share is judged by each side's worst file,
// not its median, so one wrong run among many is not outvoted.
func compareDocs(w io.Writer, defs []metricDef, base, fresh []document) int {
	code := 0
	row := func(workload, metric, baseV, newV, worsening, word string) {
		fmt.Fprintf(w, "%-14s %-24s %14s %14s %9s  %s\n", workload, metric, baseV, newV, worsening, word)
		if word == "worse" || word == "missing" {
			code = 1
		}
	}
	row("workload", "metric", "base", "new", "worsening", "verdict")
	for _, name := range workloadNames(base) {
		for _, d := range defs {
			pick := func(r *runResult) (float64, bool) {
				v, ok := r.Metrics[d.Name]
				return v.Value, ok
			}
			b, f := sideOf(base, name, pick), sideOf(fresh, name, pick)
			switch worsening, word := verdict(d, b, f); {
			case b.n == 0:
			case f.n < len(fresh):
				row(name, d.Name, fmt.Sprintf("%.4f", b.median), "-", "", "missing")
			default:
				row(name, d.Name, fmt.Sprintf("%.4f", b.median), fmt.Sprintf("%.4f", f.median),
					fmt.Sprintf("%+.2f%%", 100*worsening), word)
			}
		}
		share := func(r *runResult) (float64, bool) { return r.FailedShare, true }
		b, f := sideOf(base, name, share), sideOf(fresh, name, share)
		switch {
		case f.n < len(fresh):
			row(name, "failed_share", fmt.Sprintf("%.6f", b.max), "-", "", "missing")
		case f.max > b.max:
			row(name, "failed_share", fmt.Sprintf("%.6f", b.max), fmt.Sprintf("%.6f", f.max), "", "worse")
		default:
			row(name, "failed_share", fmt.Sprintf("%.6f", b.max), fmt.Sprintf("%.6f", f.max), "", "ok")
		}
	}
	return code
}

// workloadNames is every workload any of the documents ran, in a stable
// order.
func workloadNames(docs []document) []string {
	seen := map[string]bool{}
	var names []string
	for _, d := range docs {
		for n := range d.Workloads {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	return names
}
