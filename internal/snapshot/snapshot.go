// Package snapshot is the versioned, self-describing envelope that every
// serialised artifact of the AOVLIS runtime (model weights, detector
// runtime state, ledger batches) opens with. The pool manifest's format,
// reader and writer are package manifest, which needs no gob; files reach
// disk through package durable.
//
// # Envelope
//
// Every snapshot stream begins with a gob-encoded Header{Magic, Version,
// Kind}. Magic rejects arbitrary files early; Kind rejects a valid snapshot
// of the wrong artifact (a model file fed to the detector restorer); Version
// is the wire-format codec version. Readers accept any version in
// [1, Version] — the codec for version v must keep decoding v-formatted
// streams forever (enforced by the golden-fixture compatibility gate in the
// root package: testdata/snapshots/v*/...). Writers always emit the current
// Version. A PR that changes any snapshot wire format must bump Version and
// check in a new golden fixture directory, or the compatibility gate fails.
package snapshot

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"

	"aovlis/internal/snapshot/manifest"
)

// Magic identifies an AOVLIS snapshot stream.
const Magic = "AOVLIS-SNAP"

// Version is the current snapshot wire-format codec version; it is defined,
// and bumped, in package manifest (see manifest.Version).
const Version = manifest.Version

// Artifact kinds carried in the envelope.
const (
	KindModel    = "core.Model"
	KindDetector = "aovlis.Detector"
	// KindChannelExport wraps a KindDetector stream with a channel-identity
	// manifest (serve.ExportChannel emits it): the importer can reject a
	// snapshot PUT to the wrong channel id before restoring anything.
	KindChannelExport = "serve.ChannelExport"
	// KindLedgerBatch is one committed batch of the tamper-evident verdict
	// ledger (internal/ledger): a Merkle-batched run of verdicts whose root
	// chains to the previous batch's, as a gob payload. The ledger reads it
	// and no longer writes it.
	KindLedgerBatch = "ledger.Batch"
	// KindLedgerBinaryBatch is the same batch with the entries stored as the
	// canonical bytes their leaves hash — the format the ledger writes.
	KindLedgerBinaryBatch = "ledger.BinaryBatch"
)

// Header is the self-describing envelope at the head of every snapshot
// stream.
type Header struct {
	Magic   string
	Version int
	Kind    string
}

// WriteHeader emits the envelope for kind at the current codec version.
func WriteHeader(w io.Writer, kind string) error {
	h := Header{Magic: Magic, Version: Version, Kind: kind}
	if err := gob.NewEncoder(w).Encode(h); err != nil {
		return fmt.Errorf("snapshot: encoding %s header: %w", kind, err)
	}
	return nil
}

// ReadHeader decodes and validates the envelope: the magic must match, the
// kind must be wantKind, and the version must be one this codec still
// speaks (1..Version). It returns the header so callers can dispatch on
// Version when decoding the payload.
func ReadHeader(r io.Reader, wantKind string) (Header, error) {
	var h Header
	if err := gob.NewDecoder(r).Decode(&h); err != nil {
		return h, fmt.Errorf("snapshot: decoding header: %w", err)
	}
	if h.Magic != Magic {
		return h, fmt.Errorf("snapshot: bad magic %q (not an AOVLIS snapshot)", h.Magic)
	}
	if h.Version < 1 || h.Version > Version {
		return h, fmt.Errorf("snapshot: version %d not in supported range [1, %d]", h.Version, Version)
	}
	if h.Kind != wantKind {
		return h, fmt.Errorf("snapshot: kind %q, want %q", h.Kind, wantKind)
	}
	return h, nil
}

// ReadHeaderAny decodes and validates the envelope without constraining the
// artifact kind — for callers that dispatch on it (serve.DecodeSnapshot
// accepts both bare detector streams and channel-export wrappers). The
// magic and version checks are identical to ReadHeader.
func ReadHeaderAny(r io.Reader) (Header, error) {
	var h Header
	if err := gob.NewDecoder(r).Decode(&h); err != nil {
		return h, fmt.Errorf("snapshot: decoding header: %w", err)
	}
	if h.Magic != Magic {
		return h, fmt.Errorf("snapshot: bad magic %q (not an AOVLIS snapshot)", h.Magic)
	}
	if h.Version < 1 || h.Version > Version {
		return h, fmt.Errorf("snapshot: version %d not in supported range [1, %d]", h.Version, Version)
	}
	return h, nil
}

// Reader wraps r so that chained gob decoders can share it safely: gob
// wraps any reader that is not an io.ByteReader in its own bufio.Reader,
// which reads ahead and silently swallows the bytes the NEXT decoder in the
// chain needed. Wrapping once up front (a *bufio.Reader is an io.ByteReader)
// makes every decoder in the chain read exactly its own messages. Readers
// that already implement io.ByteReader (bytes.Buffer, bufio.Reader) are
// returned unchanged.
func Reader(r io.Reader) io.Reader {
	if _, ok := r.(io.ByteReader); ok {
		return r
	}
	return bufio.NewReader(r)
}
