// Command aovlis-bench is the repository's benchmark: it builds aovlisd and
// aovlisr from the checkout, generates every input from -seed, drives real
// server processes over loopback through four workloads, checks every
// verdict against an in-process reference, and prints every metric by name
// with its unit. See README.md in this directory.
//
//	go run -C cmd/aovlis-bench . -seed 11 -out results/BENCH_11.json
//	go run -C cmd/aovlis-bench . -seed 11 -trace 1 -out traced.json
//	go run -C cmd/aovlis-bench . -workload direct-steady -seed 3 -seconds 15 -trace 0
//	go run -C cmd/aovlis-bench . compare base.json -- new.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"aovlis"
)

// setupRepeats is how many times a run builds the fixture; setup_s is the
// median. The last one built is the one measured.
const setupRepeats = 3

// runResult is one run of one workload: what it was fed, what ran, how the
// verdicts fared and what was measured.
type runResult struct {
	InputsSHA256   string    `json:"inputs_sha256"`
	ServerCommands []string  `json:"server_commands"`
	Attempted      int       `json:"attempted"`
	Failed         int       `json:"failed"`
	FailedShare    float64   `json:"failed_share"`
	Mismatches     []string  `json:"first_mismatches,omitempty"`
	LatencySamples int       `json:"latency_samples"`
	Metrics        metricSet `json:"metrics"`
}

// workloadResult is one workload's section of the output document: the
// untraced run with the end-to-end metrics, the traced run with the
// per-layer ones.
type workloadResult struct {
	EndToEnd *runResult `json:"end_to_end,omitempty"`
	Traced   *runResult `json:"traced,omitempty"`
}

// document is the -out file: one trajectory point.
type document struct {
	Seed        int64                      `json:"seed"`
	Seconds     int                        `json:"seconds"`
	Fingerprint fingerprint                `json:"fingerprint"`
	Workloads   map[string]*workloadResult `json:"workloads"`
}

// resultLine is the last line of standard output of a single-workload run.
type resultLine struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	if len(os.Args) > 1 && os.Args[1] == "spec" {
		b, err := benchmarkJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "aovlis-bench:", err)
			os.Exit(1)
		}
		os.Stdout.Write(b)
		return
	}
	var (
		name    = flag.String("workload", "", "run one workload and end with the result line (default: all four, no result line)")
		seed    = flag.Int64("seed", 11, "the only source of randomness: every input is generated from it")
		seconds = flag.Int("seconds", runSeconds, "nominal measured time per workload; segment counts are fixed functions of it")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced layer run (with no -workload: both)")
		out     = flag.String("out", "", "write the full result document to this file")
	)
	flag.Parse()
	if *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "aovlis-bench: want -seconds 1..60, -trace 0|1 and no positional arguments")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, *name, *seed, *seconds, *trace == 1, *out)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "aovlis-bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, name string, seed int64, seconds int, traced bool, out string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	todo := workloads
	if name != "" {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		todo = []workload{w}
	}
	binDir, err := buildServers(ctx, root)
	if err != nil {
		return err
	}
	// Every file a run writes lives under the checkout's build directory and
	// is gone when the command returns.
	tmpParent := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmpParent, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(tmpParent, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	e := env{binDir: binDir, tmp: tmp, traceDir: filepath.Join(root, ".bench_build")}
	if out != "" {
		e.traceDir = filepath.Dir(out)
	}

	doc := document{Seed: seed, Seconds: seconds, Fingerprint: takeFingerprint(root, tmp),
		Workloads: map[string]*workloadResult{}}
	var shared metricSet
	if traced {
		if shared, err = sharedLayers(seed, tmp); err != nil {
			return fmt.Errorf("layers: %w", err)
		}
	}
	var last *runResult
	for _, w := range todo {
		res := &workloadResult{}
		// With no -workload the document carries both views; a single
		// workload runs exactly the one the driver asked for.
		if name == "" || !traced {
			res.EndToEnd = &runResult{}
			if err := measure(ctx, e, w, seed, seconds, setupRepeats, res.EndToEnd); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			last = res.EndToEnd
			last.print(w.name, endToEnd)
		}
		if traced {
			res.Traced = &runResult{}
			if err := measureTraced(ctx, e, w, seed, seconds, shared, res.Traced); err != nil {
				return fmt.Errorf("%s (traced): %w", w.name, err)
			}
			last = res.Traced
			last.print(w.name, perLayer)
		}
		doc.Workloads[w.name] = res
	}
	if out != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if name != "" {
		b, err := json.Marshal(resultLine{Correct: last.Failed == 0, Attempted: last.Attempted, Failed: last.Failed, Metrics: last.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	return nil
}

// print writes every metric by name with its unit, in definition order,
// then the first mismatching verdicts, if any.
func (res *runResult) print(workload string, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("%-14s %-36s %14.4f %s\n", workload, d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	for _, m := range res.Mismatches {
		fmt.Println("MISMATCH", workload, m)
	}
}

// prepared is a workload ready to measure: inputs generated, the fixture
// built setupRepeats times (the last kept running), the oracle computed.
type prepared struct {
	in     *inputs
	f      *fixture
	setupS float64
	want   [][]aovlis.Result
	// inprocSegS is the oracle's single-thread scoring rate.
	inprocSegS float64
}

func prepare(ctx context.Context, e env, w workload, seed int64, seconds, repeats int) (*prepared, error) {
	ds, err := buildDataset(seed)
	if err != nil {
		return nil, err
	}
	in, err := generate(w, seconds, seed, ds.Pipeline)
	if err != nil {
		return nil, err
	}
	p := &prepared{in: in}
	var setups []float64
	for i := 0; i < repeats; i++ {
		if p.f != nil {
			p.f.teardown()
		}
		var d time.Duration
		if p.f, d, err = setUp(ctx, e, in, seed); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	p.setupS = median(setups)
	if p.want, p.inprocSegS, err = oracle(p.f.model, in, w.retrains(seconds)); err != nil {
		p.f.teardown()
		return nil, err
	}
	in.finishPlan(p.want)
	return p, nil
}

// measure is the untraced run: the end-to-end metrics of one workload.
func measure(ctx context.Context, e env, w workload, seed int64, seconds, repeats int, res *runResult) error {
	p, err := prepare(ctx, e, w, seed, seconds, repeats)
	if err != nil {
		return err
	}
	defer p.f.teardown()
	// What the two phases time are per-layer metrics, of the traced run; here
	// they load the servers for the peak RSS and put every verdict, paced and
	// under saturation, past the oracle.
	pr, err := p.f.paced(p.in)
	if err != nil {
		return err
	}
	if _, err := p.f.saturate(p.in); err != nil {
		return err
	}
	rss, err := p.f.rssPeakMB()
	if err != nil {
		return err
	}
	v := p.f.check(p.in, p.want)
	res.fill(p, v, len(pr.latencyMs))

	m := metricSet{}
	m.set(endToEnd, "setup_s", p.setupS)
	m.set(endToEnd, "server_rss_peak_mb", rss)
	res.Metrics = m
	return m.complete(endToEnd)
}

func (res *runResult) fill(p *prepared, v verdicts, samples int) {
	res.InputsSHA256 = p.in.sha
	res.ServerCommands = p.f.commandLines()
	res.Attempted, res.Failed = v.attempted, v.failed
	res.FailedShare = float64(v.failed) / float64(v.attempted)
	res.Mismatches = v.first
	res.LatencySamples = samples
}
