package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"aovlis/internal/snapshot/manifest"
	"aovlis/internal/wire"
	"aovlis/internal/wire/wiretest"
)

// sameError fails unless err and ref are both nil, or both refuse in and
// err names the byte it stopped at (wiretest.RefusedAt).
func sameError(t *testing.T, what string, in []byte, err, ref error) {
	t.Helper()
	if (err == nil) != (ref == nil) {
		t.Fatalf("%s of %q: err %v, encoding/json %v", what, in, err, ref)
	}
	if err != nil {
		wiretest.RefusedAt(t, in, err, ref)
	}
}

// FuzzReadJSON holds every JSON reader the router runs to encoding/json on
// the same bytes: DecodeDecision (json.Unmarshal into a wire.Decision), the
// /healthz probe and the /channels merge (json.Unmarshal of the first MiB
// into healthResponse and []json.RawMessage), and manifest.Parse
// (json.Unmarshal into a manifest.Manifest). Each must accept what
// encoding/json accepts, refuse the rest at a byte it names, and read the
// same values; the /channels document written back must be what a
// json.Encoder with SetIndent("", "  ") writes for the slice.
func FuzzReadJSON(f *testing.F) {
	for _, s := range []string{
		`{"channel":"a","seq":1,"anomaly":true,"score":0.5,"exact":true,"path":"exact","wseq":3}`,
		`{"status":"ok","node_id":"n1","last_snapshot_age_seconds":3}`, `{"status":"ok","last_snapshot_age_seconds":null} trailing`,
		`{"status":"ok","last_snapshot_age_seconds":1.5}`, `{"STATUS":"ok","Node_ID":"x"}`, `{"status":5}`,
		`{"a":{"channel":"a","observed":3},"b":[1, {"x" : "<&>"}],"c":null,"a":"dup"}`, `[{"channel":"a"}]`, `{} {`,
		`[{"channel":"b","observed":2}, null ,{"CHANNEL":"<a>","x":[ ]},7,"s"]`, `[]`, `[] [`,
		`{"version":2,"unix_nanos":42,"channels":[{"id":"a","file":"a.1.snap","bytes":10,"sha256":"00","shard":1,"wal_seq":7}]}`,
		`{"version":1,"channels":[{"id":"x","file":"f"}],"channels":[{"id":"y"},null]}`, `{"version":1,"channels":[1]}`,
		`{"version":1,"channels":[{"id":"x","file":"f","bytes":-5}]}`, `{"version":"1"}`, `{"version":1e3}`,
		``, ` `, `null`, `{`, `{"a":`, `"s"`, `[`, `tru`, `-`, `{"\u00e9\ud800":"\ud83d\ude00"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 1<<16 {
			return
		}
		var d, dref wire.Decision
		err, refErr := wire.DecodeDecision(b, &d), json.Unmarshal(b, &dref)
		sameError(t, "decision", b, err, refErr)
		if err == nil && (d != dref || math.Float64bits(d.Score) != math.Float64bits(dref.Score)) {
			t.Fatalf("decision of %q: %+v, encoding/json %+v", b, d, dref)
		}

		var h, href healthResponse
		err = h.read(b)
		refErr = json.Unmarshal(b, &href)
		sameError(t, "health", b, err, refErr)
		if err == nil && (h.Status != href.Status || h.NodeID != href.NodeID ||
			(h.LastSnapshotAge == nil) != (href.LastSnapshotAge == nil) ||
			h.LastSnapshotAge != nil && *h.LastSnapshotAge != *href.LastSnapshotAge) {
			t.Fatalf("health of %q: %+v, encoding/json %+v", b, h, href)
		}

		one, err := readChannelList(bytes.NewReader(b))
		var ref []json.RawMessage
		refErr = json.Unmarshal(b, &ref)
		sameError(t, "channel list", b, err, refErr)
		if err == nil {
			if len(one) != len(ref) {
				t.Fatalf("channel list of %q: %d elements, encoding/json %d", b, len(one), len(ref))
			}
			for i, v := range ref {
				if !bytes.Equal(one[i], v) {
					t.Fatalf("channel list of %q: element %d is %q, encoding/json %q", b, i, one[i], v)
				}
				var st struct{ Channel string }
				if json.Unmarshal(v, &st) == nil && channelOf(one[i]) != st.Channel {
					t.Fatalf("channel list of %q: element %d names channel %q, encoding/json %q", b, i, channelOf(one[i]), st.Channel)
				}
			}
			if ref == nil {
				ref = []json.RawMessage{} // the router merges into a made slice
			}
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.SetIndent("", "  ")
			if err := enc.Encode(ref); err != nil {
				t.Fatal(err)
			}
			j := wire.JSON{Indent: true}
			one.writeJSON(&j)
			if got := append(j.B, '\n'); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("merged %q:\n got %s\nwant %s", b, got, want.Bytes())
			}
		}

		m, err := manifest.Parse(b)
		var mref manifest.Manifest
		switch refErr := json.Unmarshal(b, &mref); {
		case refErr != nil:
			if err == nil || !strings.HasPrefix(err.Error(), "snapshot: decoding manifest: ") {
				t.Fatalf("manifest of %q: err %v, encoding/json %v", b, err, refErr)
			}
			wiretest.RefusedAt(t, b, err, refErr)
		case err != nil && strings.HasPrefix(err.Error(), "snapshot: decoding manifest"):
			t.Fatalf("manifest of %q: %v, encoding/json reads it", b, err)
		case !reflect.DeepEqual(m, mref):
			t.Fatalf("manifest of %q: %+v, encoding/json %+v", b, m, mref)
		}
	})
}

// sameDocument fails unless write writes what json.MarshalIndent(v, "",
// "  ") does — the bytes both daemons answer, less the final newline.
func sameDocument(t *testing.T, what string, write func(*wire.JSON), v any) {
	t.Helper()
	want, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	j := wire.JSON{Indent: true}
	write(&j)
	if j.Err() != nil || !bytes.Equal(j.B, want) {
		t.Fatalf("%s (%v):\n got %s\nwant %s", what, j.Err(), j.B, want)
	}
}

// TestRouterDocumentsMatchEncodingJSON pins every JSON document the router
// writes to encoding/json's bytes for the type it was written from.
func TestRouterDocumentsMatchEncodingJSON(t *testing.T) {
	age := int64(12)
	statuses := []nodeStatus{
		{Name: "a", URL: "http://127.0.0.1:1", Alive: true, Channels: 3, ConsecutiveFails: 0},
		{Name: "b<&>", URL: "http://[::1]:2", Channels: -1, ConsecutiveFails: 4, LastSnapshotAgeSeconds: &age, SnapshotDir: "/d\u2028"},
	}
	sameDocument(t, "nodes", func(j *wire.JSON) {
		j.Array()
		for _, st := range statuses {
			st.writeJSON(j)
		}
		j.EndArray()
	}, statuses)
	for _, p := range []placement{{Channel: "c", Node: "a", URL: "u", Placed: true, Epoch: 9}, {Channel: "\xff"}} {
		sameDocument(t, "placement", p.writeJSON, p)
	}
	for _, rep := range []RebalanceReport{
		{},
		{Considered: 3, Moved: 1, Failed: 1, Moves: []Move{{Channel: "x", From: "a", To: "b", Warm: true},
			{Channel: "y", From: "a", To: "c", Error: "import: 409 <conflict>"}}},
		{Moves: []Move{}},
	} {
		sameDocument(t, "rebalance", rep.writeJSON, rep)
	}
	merged := channelList{[]byte(` { "channel" : "b", "x":[ ] } `), []byte(`"<a>"`), []byte(`null`)}
	raw := []json.RawMessage{}
	for _, v := range merged {
		raw = append(raw, v)
	}
	sameDocument(t, "channels", merged.writeJSON, raw)
	sameDocument(t, "no channels", channelList{}.writeJSON, raw[:0])
}

// TestRouterHealthMatchesEncodingJSON: GET /healthz on the router answers
// json.Encoder's bytes for the map it used to encode.
func TestRouterHealthMatchesEncodingJSON(t *testing.T) {
	_, _, srv := newTestCluster(t, 2, nil)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Uptime int `json:"uptime_seconds"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want, _ := json.MarshalIndent(map[string]interface{}{
		"status": "ok", "role": "router", "uptime_seconds": got.Uptime, "nodes": 2, "nodes_alive": 2, "channels": 0,
	}, "", "  ")
	if string(body) != string(want)+"\n" || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("router /healthz:\n got %s\nwant %s", body, want)
	}
}
