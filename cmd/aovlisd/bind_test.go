package main

import (
	"bufio"
	"bytes"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestDaemonBindsBeforeAnnouncing: on an occupied port aovlisd exits 1
// naming the bind error and prints no listening line — it binds before it
// loads or opens anything; on port 0 it announces the address it bound,
// serves there, and shuts down on SIGINT.
func TestDaemonBindsBeforeAnnouncing(t *testing.T) {
	daemon, _, model := smokeBinaries(t)
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(daemon, "-addr", taken.Addr().String(), "-load", model)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("on a taken port: %v, want exit status 1", err)
	}
	if !strings.Contains(stderr.String(), "address already in use") || strings.Contains(stdout.String(), "listening") {
		t.Fatalf("on a taken port: stdout %q, stderr %q; want the bind error and no listening line", stdout.String(), stderr.String())
	}

	cmd = exec.Command(daemon, "-addr", "127.0.0.1:0", "-load", model)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	sc := bufio.NewScanner(out)
	var addr string
	for addr == "" && sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "aovlisd listening on "); ok {
			addr, _, _ = strings.Cut(rest, " ")
		}
	}
	if _, port, err := net.SplitHostPort(addr); err != nil || port == "0" {
		t.Fatalf("no listening line naming the bound port (got %q, %v)", addr, sc.Err())
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz at the announced address: %s", resp.Status)
	}
	cmd.Process.Signal(os.Interrupt)
	done := make(chan error, 1)
	go func() {
		for sc.Scan() {
		}
		done <- cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("after SIGINT: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("aovlisd did not shut down on SIGINT")
	}
}
