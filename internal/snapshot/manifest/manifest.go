// Package manifest is the pool manifest format of the snapshot substrate:
// the JSON index a pool snapshot commits last, naming every channel file
// it wrote with its size and checksum. It is its own package so that a
// reader of checkpoints — the router restores a dead node's channels from
// them — links neither the snapshot envelope's gob codec nor a JSON
// library: the manifest is written and read with internal/wire's codec,
// byte for byte what encoding/json writes and reads for these types.
package manifest

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"aovlis/internal/durable"
	"aovlis/internal/snapshot/flat"
	"aovlis/internal/wire"
)

// Version is the current snapshot wire-format codec version, which
// snapshot.Version is: the newest a manifest may record. Bump it (and add
// a testdata/snapshots/v<N> golden in the root package) whenever any
// snapshot wire format changes. Version 2 dropped the ADOS filter's
// configuration and counters from the detector payload; version 3 writes
// the updater's buffer as one log of rows and an offset per sample;
// version 4 is the flat record (package flat), which is defined there.
const Version = flat.Version

// Name is the file the pool manifest commits to inside a snapshot
// directory.
const Name = "MANIFEST.json"

// ChannelEntry records one channel's committed snapshot file in a pool
// manifest.
type ChannelEntry struct {
	// ID is the channel id; File is the snapshot file name relative to the
	// manifest's directory.
	ID   string `json:"id"`
	File string `json:"file"`
	// Bytes and SHA256 fingerprint the committed payload; ReadEntry
	// checks them before a channel is rebuilt from it.
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
	// Shard records the shard the channel was confined to when snapshotted
	// (informational: shard assignment is re-derived from the id on
	// restore).
	Shard int `json:"shard"`
	// WALSeq is the channel's highest sequence already applied when this
	// snapshot quiesced — the replay floor: on boot the daemon skips WAL
	// records with Seq <= WALSeq because their effects are inside the
	// snapshot, and the restored channel numbers on from it (JSON-additive:
	// older manifests decode with a zero floor, which replays
	// conservatively).
	WALSeq uint64 `json:"wal_seq,omitempty"`
}

// Manifest indexes one committed pool snapshot. It is written last, with
// the same atomic-rename commit as the channel files, so its presence
// implies every file it names is complete.
type Manifest struct {
	// Version is the snapshot codec version the channel files were written
	// with.
	Version int `json:"version"`
	// UnixNanos is the commit time.
	UnixNanos int64 `json:"unix_nanos"`
	// Channels lists every committed channel snapshot, sorted by id.
	Channels []ChannelEntry `json:"channels"`
}

// Append appends m as the manifest file holds it: what a json.Encoder with
// SetIndent("", "  ") writes for m.
func Append(b []byte, m Manifest) []byte {
	j := wire.JSON{B: b, Indent: true}
	j.Object()
	j.Key("version").Int(int64(m.Version))
	j.Key("unix_nanos").Int(m.UnixNanos)
	j.Key("channels")
	if m.Channels == nil {
		j.Null()
	} else {
		j.Array()
		for _, e := range m.Channels {
			j.Object()
			j.Key("id").String(e.ID)
			j.Key("file").String(e.File)
			j.Key("bytes").Int(e.Bytes)
			j.Key("sha256").String(e.SHA256)
			j.Key("shard").Int(int64(e.Shard))
			if e.WALSeq != 0 {
				j.Key("wal_seq").Uint(e.WALSeq)
			}
			j.EndObject()
		}
		j.EndArray()
	}
	j.EndObject()
	return append(j.B, '\n')
}

// Read loads and validates dir's manifest.
func Read(dir string) (Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, Name))
	if err != nil {
		return Manifest{}, fmt.Errorf("snapshot: reading manifest: %w", err)
	}
	return Parse(data)
}

var (
	manifestKeys = []string{"version", "unix_nanos", "channels"}
	entryKeys    = []string{"id", "file", "bytes", "sha256", "shard", "wal_seq"}
)

// Parse decodes and validates a manifest payload: what json.Unmarshal
// reads from data into a Manifest, then checked. Split from Read so
// untrusted bytes can be validated without touching the filesystem (the
// fuzz targets drive this directly).
func Parse(data []byte) (Manifest, error) {
	var m Manifest
	if err := decode(data, &m); err != nil {
		return m, fmt.Errorf("snapshot: decoding manifest: %w", err)
	}
	if m.Version < 1 || m.Version > Version {
		return m, fmt.Errorf("snapshot: manifest version %d not in supported range [1, %d]", m.Version, Version)
	}
	for i, e := range m.Channels {
		if e.ID == "" || e.File == "" {
			return m, fmt.Errorf("snapshot: manifest entry %d has empty id or file", i)
		}
		// ReadEntry joins File to the manifest's directory: a name that is
		// not a plain file name there could reach any file on the host.
		if e.File == "." || e.File == ".." || strings.ContainsAny(e.File, `/\`) {
			return m, fmt.Errorf("snapshot: manifest entry %q names %q, not a file name", e.ID, e.File)
		}
		if e.Bytes < 0 {
			return m, fmt.Errorf("snapshot: manifest entry %q records negative size %d", e.ID, e.Bytes)
		}
	}
	return m, nil
}

func decode(data []byte, m *Manifest) error {
	var r wire.JSONReader
	if err := r.Reset(data); err != nil {
		return err
	}
	if !r.Object() {
		return r.Err()
	}
	for r.More() {
		switch r.Key(manifestKeys...) {
		case 0:
			wire.ReadInt(&r, &m.Version)
		case 1:
			wire.ReadInt(&r, &m.UnixNanos)
		case 2:
			wire.ReadSlice(&r, &m.Channels, func(e *ChannelEntry) {
				if !r.Object() {
					return
				}
				for r.More() {
					switch r.Key(entryKeys...) {
					case 0:
						r.String(&e.ID)
					case 1:
						r.String(&e.File)
					case 2:
						wire.ReadInt(&r, &e.Bytes)
					case 3:
						r.String(&e.SHA256)
					case 4:
						wire.ReadInt(&r, &e.Shard)
					case 5:
						r.Uint(&e.WALSeq)
					default:
						r.Skip()
					}
				}
			})
		default:
			r.Skip()
		}
	}
	return r.Err()
}

// Write commits m into dir as Name, after the channel files it names.
func Write(dir string, m Manifest) error {
	return durable.Commit(filepath.Join(dir, Name), Append(nil, m))
}

// ReadEntry reads the entry's committed file under dir once, checks its
// size and checksum against the entry — a restore must not rebuild a
// channel from a truncated or corrupted file — and returns its bytes.
func ReadEntry(dir string, e ChannelEntry) ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(dir, e.File))
	if err != nil {
		return nil, fmt.Errorf("snapshot: channel %q: %w", e.ID, err)
	}
	if int64(len(b)) != e.Bytes {
		return nil, fmt.Errorf("snapshot: channel %q: %s is %d bytes, manifest records %d", e.ID, e.File, len(b), e.Bytes)
	}
	if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != e.SHA256 {
		return nil, fmt.Errorf("snapshot: channel %q: %s checksum mismatch", e.ID, e.File)
	}
	return b, nil
}
