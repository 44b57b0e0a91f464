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

// TestParseRefusesPathFileNames: an entry's file must be a plain name in
// the manifest's directory. ReadEntry joins it to that directory, so
// "../../x" would read (and router failover upload) a file outside it.
func TestParseRefusesPathFileNames(t *testing.T) {
	for _, file := range []string{"../../x", "../x.snap", "a/b.snap", "/etc/passwd", ".", "..", `..\x`, "x/"} {
		m := Manifest{Version: Version, Channels: []ChannelEntry{{ID: "a", File: file, Bytes: 1}}}
		if _, err := Parse(Append(nil, m)); err == nil || !strings.Contains(err.Error(), "not a file name") {
			t.Errorf("file %q: Parse error %v, want a refusal", file, err)
		}
	}
	for _, file := range []string{"a.1.snap", "...1.snap", "..x", "%2F..%2Fx.1.snap"} {
		m := Manifest{Version: Version, Channels: []ChannelEntry{{ID: "a", File: file, Bytes: 1}}}
		if _, err := Parse(Append(nil, m)); err != nil {
			t.Errorf("file %q: %v", file, err)
		}
	}
}
