package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSmoke runs every workload end to end against real processes at a
// tenth of the run length (one set-up, -seconds 1).
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	binDir, err := buildServers(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			e := env{binDir: binDir, tmp: t.TempDir()}
			var res runResult
			if err := measure(context.Background(), e, w, 7, 1, 1, &res); err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%d of %d verdicts failed: %v", res.Failed, res.Attempted, res.Mismatches)
			}
			for _, d := range endToEnd {
				if v := res.Metrics[d.Name].Value; v <= 0 {
					t.Errorf("%s = %v, want a positive measurement", d.Name, v)
				}
			}
			if left, _ := os.ReadDir(e.tmp); len(left) != 0 {
				t.Errorf("teardown left %d entries in the temp dir", len(left))
			}
		})
	}
}

// TestTracedSmoke runs the traced view of the fleet mix (the one with a
// router to probe) at the smoke length: every per-layer metric must be
// measured, and the layer shares and the residue share must add up to the
// idle round trip.
func TestTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes")
	}
	t.Parallel()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	binDir, err := buildServers(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	e := env{binDir: binDir, tmp: t.TempDir(), traceDir: t.TempDir()}
	shared, err := sharedLayers(7, e.tmp)
	if err != nil {
		t.Fatal(err)
	}
	var res runResult
	if err := measureTraced(context.Background(), e, workloads[2], 7, 1, shared, &res); err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%d of %d verdicts failed: %v", res.Failed, res.Attempted, res.Mismatches)
	}
	sum := res.Metrics["trace.residue_share"].Value
	for name, v := range res.Metrics {
		if strings.HasPrefix(name, "trace.") && strings.HasSuffix(name, "_share") &&
			name != "trace.residue_share" && name != "trace.overhead_share" {
			sum += v.Value
		}
	}
	if sum < 0.999999 || sum > 1.000001 {
		t.Errorf("layer shares and residue share add up to %v of the idle round trip, want 1", sum)
	}
	for _, name := range []string{"cluster.hop_us", "cluster.forward_mean_us", "cluster.node_skew", "ados.tier_skip_share", "aovlisd.rtt_idle_us"} {
		if v := res.Metrics[name].Value; v <= 0 {
			t.Errorf("%s = %v on the fleet mix, want a positive measurement", name, v)
		}
	}
	if _, err := os.Stat(filepath.Join(e.traceDir, "trace_routed-fleet.json")); err != nil {
		t.Errorf("the spans were not written: %v", err)
	}
}

// childrenOf lists the live (non-zombie) processes whose parent is pid.
func childrenOf(pid int) []int {
	var out []int
	entries, _ := os.ReadDir("/proc")
	for _, e := range entries {
		child, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if state, ppid, ok := procState(child); ok && ppid == pid && state != "Z" {
			out = append(out, child)
		}
	}
	return out
}

func procState(pid int) (state string, ppid int, ok bool) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return "", 0, false
	}
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 2 {
		return "", 0, false
	}
	ppid, err = strconv.Atoi(f[1])
	return f[0], ppid, err == nil
}

func alive(pid int) bool {
	state, _, ok := procState(pid)
	return ok && state != "Z"
}

// TestNoChildSurvivesAbort aborts a run mid-flight, once politely and once
// by force, and requires that no server process outlives it; the polite
// abort must also remove the run's temp dir.
func TestNoChildSurvivesAbort(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes")
	}
	bin := filepath.Join(t.TempDir(), "aovlis-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building the benchmark: %v\n%s", err, out)
	}
	for _, sig := range []syscall.Signal{syscall.SIGINT, syscall.SIGKILL} {
		sig := sig
		t.Run(sig.String(), func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command(bin, "-workload", "routed-fleet", "-seconds", "20")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			var children []int
			for deadline := time.Now().Add(60 * time.Second); len(children) < 3; {
				if time.Now().After(deadline) {
					cmd.Process.Kill()
					t.Fatalf("the fleet (2 aovlisd + aovlisr) never came up; stderr: %s", stderr.String())
				}
				time.Sleep(20 * time.Millisecond)
				children = childrenOf(cmd.Process.Pid)
			}
			// The run's temp dir is in the daemons' -load argument.
			var runDir string
			for _, c := range children {
				args, _ := os.ReadFile(fmt.Sprintf("/proc/%d/cmdline", c))
				for _, a := range strings.Split(string(args), "\x00") {
					if i := strings.Index(a, string(filepath.Separator)+"run-"); i >= 0 && strings.HasSuffix(a, "model.bin") {
						runDir = filepath.Dir(filepath.Dir(a))
					}
				}
			}
			if runDir == "" {
				t.Fatal("no daemon was started with -load <run dir>/.../model.bin")
			}
			defer os.RemoveAll(runDir) // a forced abort cannot clean up after itself

			cmd.Process.Signal(sig)
			err := cmd.Wait()
			if err == nil {
				t.Error("an aborted run exited 0")
			}
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
				var left []int
				for _, c := range children {
					if alive(c) {
						left = append(left, c)
					}
				}
				if len(left) == 0 {
					break
				}
				if time.Now().After(deadline) {
					for _, c := range left {
						syscall.Kill(c, syscall.SIGKILL)
					}
					t.Fatalf("children %v survived %v", left, sig)
				}
			}
			if sig == syscall.SIGINT {
				if _, err := os.Stat(runDir); !os.IsNotExist(err) {
					t.Errorf("interrupted run left its temp dir %s behind", runDir)
				}
				if strings.Contains(stdout.String(), "\"correct\"") {
					t.Error("interrupted run printed a result")
				}
			}
		})
	}
}

// TestDeadChildFailsTheRun kills a daemon under a warmed fixture and expects
// the run to fail with the child named in the error.
func TestDeadChildFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes")
	}
	t.Parallel()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	binDir, err := buildServers(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	e := env{binDir: binDir, tmp: t.TempDir()}
	p, err := prepare(context.Background(), e, workloads[0], 7, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.f.teardown()
	p.f.entry.cmd.Process.Kill()
	_, err = p.f.paced(p.in)
	if err == nil || !strings.Contains(err.Error(), "died early") {
		t.Fatalf("paced phase against a dead daemon returned %v, want the child's death", err)
	}
}
