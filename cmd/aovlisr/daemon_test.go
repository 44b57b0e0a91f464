package main

// Tests of the two daemon binaries as built: what they link, and how they
// bind and announce.

import (
	"bufio"
	"bytes"
	"debug/elf"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestDaemonsLinkNoTLS: neither daemon imports net/http, directly or
// through any package — they serve through wire.Server, call out through
// wire.Do and profile through runtime/pprof. Importing net/http, even for
// its types, links its TLS, x509, HTTP/2 and mime code through package
// initialisation, about a megabyte of image that every daemon keeps
// resident. Nor do they import net (or net/textproto, which imports it):
// wire opens its own sockets, and net's cgo resolver links runtime/cgo, so
// a daemon built with cgo available would load libc through the dynamic
// loader. The binaries, built with CGO_ENABLED=1 outside -race (which needs
// cgo), must be static: no PT_INTERP program header and no DT_NEEDED
// library. They must still carry wire.(*Server).Serve, so the symbol table
// the sanity check reads is there.
//
// Neither imports encoding/json or net/netip either: wire writes and reads
// the JSON and IP literals they use. And the router imports none of the
// detector — the root package, core, nn, serve, the live plane — nor
// encoding/gob, which only the node's formats need.
func TestDaemonsLinkNoTLS(t *testing.T) {
	banned := []string{"net/http", "net/http/pprof", "crypto/tls", "crypto/x509", "mime",
		"net", "net/textproto", "runtime/cgo", "encoding/json", "net/netip"}
	for bin, more := range map[string][]string{
		"aovlis/cmd/aovlisd": nil,
		"aovlis/cmd/aovlisr": {"encoding/gob", "aovlis", "aovlis/internal/core", "aovlis/internal/nn",
			"aovlis/internal/serve", "aovlis/internal/stream/liveplane"},
	} {
		out, err := exec.Command("go", "list", "-deps", bin).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", bin, err)
		}
		deps := make(map[string]bool)
		for _, pkg := range strings.Fields(string(out)) {
			deps[pkg] = true
		}
		for _, pkg := range append(banned, more...) {
			if deps[pkg] {
				t.Errorf("%s imports %s", bin, pkg)
			}
		}
	}
	soakBinaries(t)
	for _, bin := range []string{soakFixture.bin, soakFixture.router} {
		f, err := elf.Open(bin)
		if err != nil {
			t.Fatal(err)
		}
		syms, err := f.Symbols()
		libs, lerr := f.ImportedLibraries()
		interp := false
		for _, p := range f.Progs {
			interp = interp || p.Type == elf.PT_INTERP
		}
		f.Close()
		if err != nil || lerr != nil {
			t.Fatal(err, lerr)
		}
		if !raceEnabled && (interp || len(libs) > 0) {
			t.Errorf("%s is dynamic: interpreter %v, needs %v", bin, interp, libs)
		}
		have := make(map[string]bool, len(syms))
		for _, s := range syms {
			have[s.Name] = true
		}
		if !have["aovlis/internal/wire.(*Server).Serve"] {
			t.Fatalf("%s: no wire.(*Server).Serve symbol; is the symbol table there?", bin)
		}
	}
}

// TestRouterBindsBeforeAnnouncing: on an occupied port aovlisr exits 1
// naming the bind error and prints no routing line; on port 0 it announces
// the address it bound, serves there, and shuts down on SIGINT.
func TestRouterBindsBeforeAnnouncing(t *testing.T) {
	soakBinaries(t)
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(soakFixture.router, "-addr", taken.Addr().String(), "-nodes", "a=http://127.0.0.1:1")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("on a taken port: %v, want exit status 1", err)
	}
	if !strings.Contains(stderr.String(), "address already in use") || strings.Contains(stdout.String(), "routing") {
		t.Fatalf("on a taken port: stdout %q, stderr %q; want the bind error and no routing line", stdout.String(), stderr.String())
	}

	cmd = exec.Command(soakFixture.router, "-addr", "127.0.0.1:0", "-nodes", "a=http://127.0.0.1:1", "-probe-every", "1h")
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
	if !sc.Scan() {
		t.Fatalf("no announcement: %v", sc.Err())
	}
	_, rest, _ := strings.Cut(sc.Text(), " on ")
	addr, _, _ := strings.Cut(rest, " ")
	if _, port, err := net.SplitHostPort(addr); err != nil || port == "0" {
		t.Fatalf("announcement %q does not name the bound port", sc.Text())
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
		t.Fatal("aovlisr did not shut down on SIGINT")
	}
}

// TestDaemonsRefuseUnknownHosts: a host that is neither an IP literal nor
// a name in /etc/hosts is refused at startup, exit status 1, by an error
// that names the flag it came in: there is no DNS behind the daemons.
func TestDaemonsRefuseUnknownHosts(t *testing.T) {
	bin, model := soakBinaries(t)
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-addr", []string{bin, "-addr", "nosuch.invalid:0", "-load", model}},
		{"-addr", []string{soakFixture.router, "-addr", "nosuch.invalid:0", "-nodes", "a=http://127.0.0.1:1"}},
		{"-nodes", []string{soakFixture.router, "-addr", "127.0.0.1:0", "-nodes", "a=http://127.0.0.1:1,b=http://nosuch.invalid:1"}},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(c.args[0], c.args[1:]...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Fatalf("%v: %v, want exit status 1", c.args, err)
		}
		msg := stderr.String()
		if !strings.Contains(msg, c.flag+":") || !strings.Contains(msg, `"nosuch.invalid"`) || stdout.Len() > 0 && strings.Contains(stdout.String(), " on ") {
			t.Fatalf("%v: stderr %q, stdout %q; want the host refused under %s and nothing announced", c.args, msg, stdout.String(), c.flag)
		}
	}
}
