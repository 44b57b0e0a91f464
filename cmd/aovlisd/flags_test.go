package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// serveOnce starts aovlisd on the model with args, streams lines to one
// channel, and returns the decision bytes and everything the daemon wrote
// to stderr until it shut down.
func serveOnce(t *testing.T, bin, model string, lines []string, args ...string) (decisions, stderr []byte) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-load", model, "-shards", "1"}, args...)...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var errBuf syncBuffer
	cmd.Stderr = &errBuf
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
	if addr == "" {
		t.Fatalf("aovlisd %v announced no address:\n%s", args, errBuf.Bytes())
	}
	resp, err := http.Post("http://"+addr+"/channels/ch/observe", "application/x-ndjson",
		strings.NewReader(strings.Join(lines, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	decisions, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: %d %v\n%s", resp.StatusCode, err, decisions)
	}
	cmd.Process.Signal(os.Interrupt)
	done := make(chan error, 1)
	go func() {
		io.Copy(io.Discard, out)
		done <- cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("aovlisd %v after SIGINT: %v", args, err)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("aovlisd %v did not shut down on SIGINT", args)
	}
	return decisions, errBuf.Bytes()
}

// TestRetiredFlagIsIgnored: -fastmath still parses, says once on stderr
// that it is ignored, and changes no decision byte — with and without
// -tiered, the same model scores the same stream to the same bytes.
func TestRetiredFlagIsIgnored(t *testing.T) {
	bin, _, model := smokeBinaries(t)
	lines := smokeLines(41, 60)
	const note = "-fastmath is ignored"
	for _, mode := range [][]string{nil, {"-tiered"}} {
		exact, exactErr := serveOnce(t, bin, model, lines, mode...)
		flagged, flaggedErr := serveOnce(t, bin, model, lines, append([]string{"-fastmath"}, mode...)...)
		if n := bytes.Count(exact, []byte("\n")); n != len(lines) {
			t.Fatalf("%v: %d decision lines for %d observations", mode, n, len(lines))
		}
		if !bytes.Equal(flagged, exact) {
			t.Fatalf("%v: -fastmath changed the decisions:\n got %s\nwant %s", mode, flagged, exact)
		}
		if bytes.Contains(exactErr, []byte(note)) || bytes.Count(flaggedErr, []byte(note)) != 1 {
			t.Fatalf("%v: want one %q line only under -fastmath; stderr without it:\n%s\nwith it:\n%s", mode, note, exactErr, flaggedErr)
		}
	}
	help, _ := exec.Command(bin, "-h").CombinedOutput()
	if !bytes.Contains(help, []byte("accepted and ignored")) {
		t.Fatalf("-h does not say -fastmath is ignored:\n%s", help)
	}
}

// TestLoadTemplate: -load is required and must name a saved detector; the
// template it loads is the saved one, and -tiered opts it into the tier
// gate without touching its τ.
func TestLoadTemplate(t *testing.T) {
	if _, err := loadTemplate("", false); err == nil || !strings.Contains(err.Error(), "-load is required") {
		t.Fatalf("no -load: %v", err)
	}
	if _, err := loadTemplate(t.TempDir()+"/missing.bin", false); err == nil {
		t.Fatal("a missing model file loaded")
	}
	_, _, model := smokeBinaries(t)
	for _, tiered := range []bool{false, true} {
		det, err := loadTemplate(model, tiered)
		if err != nil {
			t.Fatal(err)
		}
		if det.Tau() != template(t).Tau() {
			t.Fatalf("tiered=%v: τ %v, saved %v", tiered, det.Tau(), template(t).Tau())
		}
		act, aud := testSeries(3, 12)
		for i := range act {
			if _, err := det.Observe(act[i], aud[i]); err != nil {
				t.Fatal(err)
			}
		}
		if gated := det.TierStats().Gated; (gated > 0) != tiered {
			t.Fatalf("tiered=%v: the tier gate decided %d segments", tiered, gated)
		}
	}
}
