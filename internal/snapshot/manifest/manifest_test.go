package manifest

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestAppendMatchesEncoder pins the manifest file to the bytes a
// json.Encoder with SetIndent("", "  ") writes for the same Manifest.
func TestAppendMatchesEncoder(t *testing.T) {
	for _, m := range []Manifest{
		{},
		{Version: 2, UnixNanos: -1, Channels: []ChannelEntry{}},
		{Version: Version, UnixNanos: 1700000000000000000, Channels: []ChannelEntry{
			{ID: "a", File: "a.7.snap", Bytes: 176000, SHA256: strings.Repeat("ab", 32), Shard: 1},
			{ID: "b<&> ", File: "b%3C.7.snap", Bytes: 0, SHA256: "", Shard: -1, WALSeq: 1 << 63},
		}},
	} {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
		if got := Append(nil, m); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("manifest:\n got %s\nwant %s", got, want.Bytes())
		}
		if len(m.Channels) > 0 {
			back, err := Parse(Append(nil, m))
			if err != nil || back.Channels[1] != m.Channels[1] {
				t.Fatalf("round trip: %+v, %v", back, err)
			}
		}
	}
}
