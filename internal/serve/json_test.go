package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"aovlis/internal/wire"
)

// same fails unless write writes json.MarshalIndent(v, "", "  ").
func same(t *testing.T, what string, write func(*wire.JSON), v any) {
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

// TestStatsDocumentsMatchEncodingJSON pins the stats, pool and snapshot
// report documents a node serves to encoding/json's bytes, with every
// omitempty member both absent and present.
func TestStatsDocumentsMatchEncodingJSON(t *testing.T) {
	for _, cs := range []ChannelStats{
		{},
		{Channel: "a<&>", Shard: 3, Observed: 10, Warmups: 2, Detected: 1, TierSkipped: 4, Rejected: 6,
			Errors: 7, QueueDepth: -1, Batches: 8, Batched: 9, BatchOccupancy: 9.0 / 8},
		{Channel: "\xff ", BatchOccupancy: 1e-7},
		{Batches: 1, BatchOccupancy: 1e21},
	} {
		same(t, "channel stats", cs.WriteJSON, cs)
	}
	for _, ps := range []PoolStats{
		{},
		{QueueDepths: []int{}},
		{Channels: 2, Shards: 4, Observed: 1, Detected: 2, Rejected: 4, Errors: 5, AdmissionState: "reject",
			TierSkipped: 6, Batches: 7, Batched: 8, BatchOccupancy: 1.0 / 3, QueueDepths: []int{0, 3, -2, math.MaxInt32}},
	} {
		same(t, "pool stats", ps.WriteJSON, ps)
	}
	for _, rep := range []Report{
		{},
		{Channels: 3, Skipped: []string{}, Bytes: 1 << 40, Elapsed: 3 * time.Millisecond, MaxQuiesce: -1},
		{Skipped: []string{"x", "<y>"}, Floors: map[string]uint64{"x": 1}},
	} {
		same(t, "snapshot report", rep.WriteJSON, rep)
	}
	var j wire.JSON
	ChannelStats{BatchOccupancy: math.NaN()}.WriteJSON(&j)
	if _, want := json.Marshal(math.NaN()); j.Err() == nil || j.Err().Error() != want.Error() {
		t.Fatalf("NaN occupancy: %v, encoding/json %v", j.Err(), want)
	}
}
