package node

import (
	"bytes"
	"encoding/json"
	"testing"

	"aovlis/internal/serve"
	"aovlis/internal/wire"
	"aovlis/internal/wire/wiretest"
)

// TestHealthDocumentMatchesEncodingJSON pins /healthz to the bytes
// json.MarshalIndent wrote for the map it was built as, with each optional
// member absent and present.
func TestHealthDocumentMatchesEncodingJSON(t *testing.T) {
	pool := serve.PoolStats{Channels: 1, Shards: 2, AdmissionState: "normal", QueueDepths: []int{0, 1}}
	for _, h := range []health{
		{uptime: 0, pool: pool},
		{uptime: 7, pool: pool, nodeID: "n<1>", snapshotDir: "/var/snap"},
		{uptime: 9, pool: serve.PoolStats{}, snapshotDir: "/s", age: -3, aged: true},
	} {
		m := map[string]interface{}{"status": "ok", "uptime_seconds": h.uptime, "pool": h.pool}
		if h.nodeID != "" {
			m["node_id"] = h.nodeID
		}
		if h.snapshotDir != "" {
			m["snapshot_dir"] = h.snapshotDir
		}
		if h.aged {
			m["last_snapshot_age_seconds"] = h.age
		}
		want, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		var rec wiretest.Recorder
		wire.WriteJSON(&rec, h.writeJSON)
		if got := rec.Body.Bytes(); !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("health:\n got %s\nwant %s", got, want)
		}
	}
}

// TestChannelListMatchesEncodingJSON: GET /channels is json.MarshalIndent
// of the stats slice, empty or not.
func TestChannelListMatchesEncodingJSON(t *testing.T) {
	for _, stats := range [][]serve.ChannelStats{{}, {{Channel: "a", Observed: 3}, {Channel: "b", BatchOccupancy: 1.5, Batches: 2}}} {
		want, err := json.MarshalIndent(stats, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		j := wire.JSON{Indent: true}
		writeChannelList(&j, stats)
		if !bytes.Equal(j.B, want) {
			t.Fatalf("channels:\n got %s\nwant %s", j.B, want)
		}
	}
}
