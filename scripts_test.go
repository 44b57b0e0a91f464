package aovlis_test

// Regression tests for the CI gate driver, scripts/smoke.sh. Every gate is
// judged on a capture file (the seam CI's bench gates use anyway), so the
// table runs the script the way CI does without spawning a fleet, and pins
// for each gate the exit code and the diagnostic of: a passing capture, a
// capture with no result (a typo'd benchmark, a renamed or skipped test —
// which must fail LOUDLY, not through a silent `set -e` exit), each
// condition the gate enforces, and a missing baseline.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runSmoke executes scripts/smoke.sh for gate on a capture holding
// content, against a baseline file holding baselines, from the repo root.
func runSmoke(t *testing.T, gate, baselines, content string) (string, error) {
	t.Helper()
	if _, err := exec.LookPath("sh"); err != nil {
		t.Skip("sh not available")
	}
	dir := t.TempDir()
	capture, base := filepath.Join(dir, "capture.txt"), filepath.Join(dir, "baselines.txt")
	for path, data := range map[string]string{capture: content, base: baselines} {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("sh", filepath.Join("scripts", "smoke.sh"), gate, capture)
	cmd.Env = append(os.Environ(), "BASELINES="+base)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

const (
	benchCapture = `goos: linux
BenchmarkDetectorObserve-8   	   50000	     20000 ns/op
BenchmarkDetectorObserve-8   	   50000	     21000 ns/op
BenchmarkDetectorObserve-8   	   50000	     22000 ns/op
BenchmarkDetectorObserveFastMath-8   	   50000	     1000 ns/op
BenchmarkDetectorObserveTiered-8   	   50000	     3000 ns/op
PASS
`
	sloCapture     = "=== RUN   TestSLOFlashCrowd\n    slo_test.go:181: SLO-RESULT profile=flash-crowd seed=7 offered=3000 accepted=1288 rejected=1712 dropped=0 lost=0 p50_us=37000 p99_us=150000 hash=9f3a\n--- PASS: TestSLOFlashCrowd\n"
	soakLine       = "SOAK-RESULT channels=12 segments=1440 lost=0 bitequal=12 killinflight=3 seqgaps=0\n"
	tputLine       = "CLUSTER-RESULT nodes=3 agg_segs_per_sec=26000 p50_us=900 p99_us=4100 sent=9000 decisions=9000 lost=0\n"
	clusterCapture = soakLine + tputLine
	walCapture     = "=== RUN   TestWALCrashReplaySmoke\nWAL-RESULT channels=4 acked=210 lost=0 replayed=90 ledger=ok\n--- PASS: TestWALCrashReplaySmoke\n"
	liveCapture    = "=== RUN   TestLiveKillResumeSmoke\nLIVE-RESULT channels=6 segments=678 lost=0 bitequal=ok resumes=1 presets=3\n--- PASS: TestLiveKillResumeSmoke\n"
)

func TestSmokeGates(t *testing.T) {
	edit := strings.NewReplacer
	for _, tc := range []struct {
		name, gate, baselines, capture string
		want                           string // must appear in the output; a case named …/ok must pass, any other must fail
	}{
		{"bench/ok", "bench", "bench.ns_per_op=20000", benchCapture, "median_ns=21000"},
		{"bench/no-samples", "bench", "bench.ns_per_op=20000", "PASS\n", "no BenchmarkDetectorObserve samples"},
		// Baseline 10000 ns/op → +25% limit 12500 < median 21000.
		{"bench/regression", "bench", "bench.ns_per_op=10000", benchCapture, "regressed more than 25%"},
		{"bench/no-baseline", "bench", "bench-tiered.ns_per_op=1", benchCapture, "no baseline bench.ns_per_op"},
		{"bench-tiered/ok", "bench-tiered", "bench-tiered.ns_per_op=3000", benchCapture, "median_ns=3000"},
		{"bench-tiered/regression", "bench-tiered", "bench-tiered.ns_per_op=2000", benchCapture, "regressed more than 25%"},

		{"slo/ok", "slo", "slo.p99_us=142000", sloCapture, "OK"},
		{"slo/no-result", "slo", "slo.p99_us=142000", "ok  \taovlis/internal/serve\t0.1s\n", "no SLO-RESULT line"},
		{"slo/lost", "slo", "slo.p99_us=142000", edit("lost=0", "lost=2").Replace(sloCapture), "accepted segments lost"},
		{"slo/dropped", "slo", "slo.p99_us=142000", edit("dropped=0", "dropped=1").Replace(sloCapture), "accepted segments dropped"},
		// Baseline 90000us → +50% limit 135000 < p99 150000.
		{"slo/regression", "slo", "slo.p99_us=90000", sloCapture, "p99 regressed more than 50%"},
		{"slo/no-baseline", "slo", "", sloCapture, "no baseline slo.p99_us"},

		{"cluster/ok", "cluster", "cluster.agg_segs_per_sec=27000", clusterCapture, "OK"},
		{"cluster/no-result", "cluster", "cluster.agg_segs_per_sec=27000", soakLine, "no CLUSTER-RESULT line"},
		{"cluster/lost", "cluster", "cluster.agg_segs_per_sec=27000", edit("1440 lost=0", "1440 lost=1").Replace(clusterCapture), "lost across failover"},
		{"cluster/bitequal", "cluster", "cluster.agg_segs_per_sec=27000", edit("bitequal=12", "bitequal=11").Replace(clusterCapture), "not every channel replayed bit-equal"},
		{"cluster/no-kill-in-flight", "cluster", "cluster.agg_segs_per_sec=27000", edit("killinflight=3", "killinflight=0").Replace(clusterCapture), "the soak proved nothing"},
		{"cluster/seqgaps", "cluster", "cluster.agg_segs_per_sec=27000", edit("seqgaps=0", "seqgaps=2").Replace(clusterCapture), "not numbered on from"},
		{"cluster/lost-under-load", "cluster", "cluster.agg_segs_per_sec=27000", edit("9000 lost=0", "9000 lost=4").Replace(clusterCapture), "lost under load"},
		// Baseline 70000 seg/s → 40% floor 28000 > 26000.
		{"cluster/collapse", "cluster", "cluster.agg_segs_per_sec=70000", clusterCapture, "collapsed below 40%"},
		{"cluster/no-baseline", "cluster", "", clusterCapture, "no baseline cluster.agg_segs_per_sec"},

		{"wal/ok", "wal", "wal.min_acked=150", walCapture, "OK"},
		{"wal/no-result", "wal", "wal.min_acked=150", "--- SKIP: TestWALCrashReplaySmoke\n", "no WAL-RESULT line"},
		{"wal/lost", "wal", "wal.min_acked=150", edit("lost=0", "lost=3").Replace(walCapture), "acknowledged segments lost"},
		{"wal/ledger", "wal", "wal.min_acked=150", edit("ledger=ok", "ledger=tamper-missed").Replace(walCapture), "ledger audit did not pass"},
		{"wal/floor", "wal", "wal.min_acked=1000", walCapture, "the drill proved too little"},
		{"wal/no-baseline", "wal", "", walCapture, "no baseline wal.min_acked"},

		{"live/ok", "live", "live.min_segments=600", liveCapture, "OK"},
		{"live/no-result", "live", "live.min_segments=600", "PASS\n", "no LIVE-RESULT line"},
		{"live/lost", "live", "live.min_segments=600", edit("lost=0", "lost=2").Replace(liveCapture), "accepted segments lost"},
		{"live/bitequal", "live", "live.min_segments=600", edit("bitequal=ok", "bitequal=fail").Replace(liveCapture), "diverged from batch replay"},
		{"live/no-resume", "live", "live.min_segments=600", edit("resumes=1", "resumes=0").Replace(liveCapture), "no Last-Seq resume exercised"},
		{"live/presets", "live", "live.min_segments=600", edit("presets=3", "presets=2").Replace(liveCapture), "not all 3 adversarial presets"},
		{"live/floor", "live", "live.min_segments=5000", liveCapture, "the drill proved too little"},
		{"live/no-baseline", "live", "", liveCapture, "no baseline live.min_segments"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := runSmoke(t, tc.gate, tc.baselines+"\n", tc.capture)
			pass := strings.HasSuffix(tc.name, "/ok")
			if pass != (err == nil) {
				t.Fatalf("exit %v, want pass=%v:\n%s", err, pass, got)
			}
			if pass != strings.Contains(got, "smoke "+tc.gate+": OK") {
				t.Fatalf("OK verdict on a run that should pass=%v:\n%s", pass, got)
			}
			if !strings.Contains(got, tc.want) {
				t.Fatalf("diagnostic %q missing:\n%s", tc.want, got)
			}
		})
	}
}

// TestSmokeBaselinesRecorded: the committed baseline file answers every
// gate the driver knows.
func TestSmokeBaselinesRecorded(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("scripts", "baselines.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"bench.ns_per_op", "bench-tiered.ns_per_op", "slo.p99_us",
		"cluster.agg_segs_per_sec", "wal.min_acked", "live.min_segments"} {
		if !strings.Contains(string(data), "\n"+key+"=") {
			t.Errorf("scripts/baselines.txt records no %s", key)
		}
	}
}
