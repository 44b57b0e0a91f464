package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"aovlis/internal/mat"
)

// benchDir is the benchmark's directory relative to the checkout root.
const benchDir = "cmd/aovlis-bench"

// findRoot walks up from the working directory to the checkout root, the
// directory that holds BENCHMARK.json (`go run -C cmd/aovlis-bench .` starts
// the program two levels below it).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory; run from a checkout")
		}
		dir = parent
	}
}

// buildServers compiles aovlisd and aovlisr from the checkout's source into
// .bench_build/bin. The go command's own cache makes a repeat build a
// staleness check.
func buildServers(ctx context.Context, root string) (binDir string, err error) {
	binDir = filepath.Join(root, ".bench_build", "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", binDir+string(filepath.Separator),
		"aovlis/cmd/aovlisd", "aovlis/cmd/aovlisr")
	cmd.Dir = filepath.Join(root, benchDir)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building servers: %v\n%s", err, out)
	}
	return binDir, nil
}

// tailBuffer keeps the last few KiB written to it: a dead child's stderr
// tail is the run's error message.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 4096; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// proc is one server process.
type proc struct {
	name string
	url  string
	args []string
	cmd  *exec.Cmd
	// done is closed once the process has been waited for.
	done   chan struct{}
	stderr tailBuffer
}

// freePort asks the kernel for an unused loopback port. The daemons print
// their -addr flag, not the bound address, so they cannot be started on :0.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// spawn starts a server as an operator would: default environment, stdout
// discarded. The child is killed if this process dies.
func spawn(bin string, port int, args ...string) (*proc, error) {
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	p := &proc{
		name: filepath.Base(bin),
		url:  "http://" + addr,
		args: append([]string{"-addr", addr}, args...),
		done: make(chan struct{}),
	}
	p.cmd = exec.Command(bin, p.args...)
	p.cmd.Stdout = nil // /dev/null
	p.cmd.Stderr = &p.stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) commandLine() string {
	return p.name + " " + strings.Join(p.args, " ")
}

// diedErr describes a child that ended before it was told to.
func (p *proc) diedErr() error {
	return fmt.Errorf("%s (pid %d) died early: %v\nstderr tail:\n%s",
		p.name, p.cmd.Process.Pid, p.cmd.ProcessState, p.stderr.String())
}

// waitHealthy polls /healthz until it answers 200.
func (p *proc) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-p.done:
			return p.diedErr()
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := http.Get(p.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy: %v\nstderr tail:\n%s", p.name, err, p.stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// kill stops the process and waits until it has ended.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// cpuMillis is the process's user + system CPU time from /proc/<pid>/stat.
func (p *proc) cpuMillis() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPUMillis(b)
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times; Linux fixes it
// at 100 for every architecture Go supports.
const clockTick = 100

// parseStatCPUMillis extracts utime + stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) may itself contain
// spaces and parentheses, so fields are counted from the last ')'.
func parseStatCPUMillis(stat []byte) (float64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat: no ')'")
	}
	f := strings.Fields(string(stat[i+1:]))
	// f[0] is field 3 (state), so utime and stime are f[11] and f[12].
	if len(f) < 13 {
		return 0, errors.New("malformed /proc stat: too few fields")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat: utime/stime not numeric")
	}
	return float64(ut+st) * 1000 / clockTick, nil
}

// rssPeakMB is the process's peak resident set (VmHWM) in MB.
func (p *proc) rssPeakMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatusHWMMB(b)
}

// parseStatusHWMMB extracts "VmHWM: <n> kB" from /proc/<pid>/status.
func parseStatusHWMMB(status []byte) (float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseUint(f[1], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM %q", f[1])
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// fingerprint records where a result came from.
type fingerprint struct {
	Commit            string `json:"git_commit"`
	GoVersion         string `json:"go_version"`
	CPUModel          string `json:"cpu_model"`
	NProc             int    `json:"nproc"`
	GeneratorMaxProcs int    `json:"gomaxprocs_generator"`
	// ServerMaxProcs is what the servers see: they inherit the environment
	// untouched, so it is GOMAXPROCS if set and the core count otherwise.
	ServerMaxProcs string `json:"gomaxprocs_servers"`
	SIMD           string `json:"simd_gemm"`
	Kernel         string `json:"kernel"`
	TempFS         string `json:"temp_dir_fs"`
}

func takeFingerprint(root, tmp string) fingerprint {
	fp := fingerprint{
		Commit:            "unknown",
		GoVersion:         runtime.Version(),
		CPUModel:          "unknown",
		NProc:             runtime.NumCPU(),
		GeneratorMaxProcs: runtime.GOMAXPROCS(0),
		ServerMaxProcs:    fmt.Sprintf("default (%d)", runtime.NumCPU()),
		SIMD:              mat.SIMDGEMM(),
		Kernel:            "unknown",
		TempFS:            fsType(tmp),
	}
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		fp.ServerMaxProcs = v
	}
	// A benchmark checkout need not be a git repository.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	return fp
}

// fsType names the filesystem holding dir: fsync numbers mean nothing
// without it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x6969:     "nfs",
		0x2FC12FC1: "zfs",
		0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
