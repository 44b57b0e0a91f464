package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"testing"
	"time"

	"aovlis"
	"aovlis/internal/mat"
	"aovlis/internal/node"
	"aovlis/internal/serve"
	"aovlis/internal/wire"
	"aovlis/internal/wire/wiretest"
)

// getJSON GETs url and returns its body, failing on anything but 200.
func getJSON(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %v\n%s", url, resp.StatusCode, err, body)
	}
	return body
}

// TestChannelsThroughRealNodes puts a Router in front of two real nodes
// (node.Open over one small trained detector) and streams channels through
// it: GET /channels on the router must answer what a node answers, one
// array of channel stats, holding every channel of both nodes sorted by
// id, byte for byte what encoding/json indents for the nodes' own elements.
func TestChannelsThroughRealNodes(t *testing.T) {
	const actionDim, audienceDim, segs = 8, 4, 12
	rng := rand.New(rand.NewSource(5))
	series := func(n int) (acts, auds [][]float64) {
		for i := 0; i < n; i++ {
			f := make([]float64, actionDim)
			f[(i/3)%actionDim] = 1
			for j := range f {
				f[j] += 0.02 + 0.01*rng.Float64()
			}
			mat.Normalize(f)
			a := make([]float64, audienceDim)
			for j := range a {
				a[j] = 0.3 + 0.03*rng.NormFloat64()
			}
			acts, auds = append(acts, f), append(auds, a)
		}
		return acts, auds
	}
	cfg := aovlis.DefaultConfig(actionDim, audienceDim)
	cfg.HiddenI, cfg.HiddenA, cfg.SeqLen, cfg.Epochs, cfg.Seed = 6, 4, 3, 1, 5
	trainA, trainU := series(48)
	det, err := aovlis.Train(trainA, trainU, cfg)
	if err != nil {
		t.Fatal(err)
	}

	specs := make([]NodeSpec, 2)
	for i := range specs {
		name := fmt.Sprintf("real-%d", i)
		n, err := node.Open(det, node.Config{MaxChannels: 16, NodeID: name, Logf: t.Logf,
			Pool: serve.Config{Shards: 1, QueueDepth: 64}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		specs[i] = NodeSpec{Name: name, URL: wiretest.NewServer(t, n.Handler()).URL}
	}
	r, err := New(Config{Nodes: specs, Window: 8, FailoverWait: 5 * time.Second,
		RetryEvery: 10 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	srv := wiretest.NewServer(t, r.Handler())

	ids := []string{"f", "b", "e", "a", "d", "c", "h", "g"}
	acts, auds := series(segs)
	lines := make([]string, segs)
	for i := range lines {
		lines[i] = string(bytes.TrimSuffix(wire.AppendObservation(nil, acts[i], auds[i]), []byte("\n")))
	}
	for _, id := range ids {
		if decs := observeThrough(t, srv.URL, id, lines); len(decs) != segs {
			t.Fatalf("channel %s: %d decisions for %d lines", id, len(decs), segs)
		}
	}

	// The nodes' own answers, merged as the router promises to.
	var want []json.RawMessage
	for _, spec := range specs {
		var one []json.RawMessage
		if err := json.Unmarshal(getJSON(t, spec.URL+"/channels"), &one); err != nil {
			t.Fatal(err)
		}
		if len(one) == 0 || len(one) == len(ids) {
			t.Fatalf("node %s holds %d of %d channels; the merge needs channels on both nodes", spec.Name, len(one), len(ids))
		}
		want = append(want, one...)
	}
	channel := func(raw json.RawMessage) string {
		var st serve.ChannelStats
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		return st.Channel
	}
	sort.Slice(want, func(i, j int) bool { return channel(want[i]) < channel(want[j]) })
	wantBody, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}

	got := getJSON(t, srv.URL+"/channels")
	if !bytes.Equal(got, append(wantBody, '\n')) {
		t.Fatalf("router /channels:\n got %s\nwant %s", got, wantBody)
	}
	var stats []serve.ChannelStats
	if err := json.Unmarshal(got, &stats); err != nil {
		t.Fatal(err)
	}
	sort.Strings(ids)
	if len(stats) != len(ids) {
		t.Fatalf("router lists %d channels, want %d", len(stats), len(ids))
	}
	for i, st := range stats {
		if st.Channel != ids[i] || st.Observed != segs {
			t.Fatalf("router /channels[%d] is %s with %d observed, want %s with %d", i, st.Channel, st.Observed, ids[i], segs)
		}
	}
}
