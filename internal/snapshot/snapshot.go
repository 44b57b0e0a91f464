// Package snapshot is the versioned, self-describing envelope that the
// serialised artifacts of the AOVLIS runtime opened with up to codec
// version 3 (model weights, detector runtime state) and that ledger
// batches still open with. The pool manifest's format, reader and writer
// are package manifest, which needs no gob; version 4 records are package
// flat; files reach disk through package durable.
//
// # Envelope
//
// A stream of codec versions 1 to 3 begins with a gob-encoded
// Header{Magic, Version, Kind}. Magic rejects arbitrary files early; Kind
// rejects a valid snapshot of the wrong artifact (a model file fed to the
// detector restorer); Version is the wire-format codec version. Readers
// accept any version in [1, GobVersion] — the codec for version v must
// keep decoding v-formatted streams forever (enforced by the golden-fixture
// compatibility gate in the root package: testdata/snapshots/v*/...).
// Nothing writes these envelopes any more but the ledger, whose batch
// header is a fixed run of their bytes. A PR that changes any snapshot
// wire format must bump Version and check in a new golden fixture
// directory, or the compatibility gate fails.
package snapshot

import (
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

// GobVersion is the last codec version whose streams open with this
// package's gob envelope; later ones are flat records.
const GobVersion = 3

// Artifact kinds carried in the envelope.
const (
	KindModel    = "core.Model"
	KindDetector = "aovlis.Detector"
	// KindChannelExport wraps a KindDetector stream with a channel-identity
	// manifest (serve.ExportChannel's stream up to version 3; a version 4
	// record names its channel in a section of its own).
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

// ReadHeader decodes and validates the envelope: the magic must match, the
// kind must be wantKind, and the version must be one of the gob envelope's
// (1..GobVersion). It returns the header so callers can dispatch on
// Version when decoding the payload.
func ReadHeader(r io.Reader, wantKind string) (Header, error) {
	h, err := ReadHeaderAny(r)
	if err == nil && h.Kind != wantKind {
		err = fmt.Errorf("snapshot: kind %q, want %q", h.Kind, wantKind)
	}
	return h, err
}

// ReadHeaderAny decodes and validates the envelope without constraining the
// artifact kind — for callers that dispatch on it (aovlis.RestoreChannel
// accepts both bare detector streams and channel-export wrappers, the
// ledger both batch formats). ReadHeader is it plus the kind check.
func ReadHeaderAny(r io.Reader) (Header, error) {
	var h Header
	if err := gob.NewDecoder(r).Decode(&h); err != nil {
		return h, fmt.Errorf("snapshot: decoding header: %w", err)
	}
	if h.Magic != Magic {
		return h, fmt.Errorf("snapshot: bad magic %q (not an AOVLIS snapshot)", h.Magic)
	}
	if h.Version < 1 || h.Version > GobVersion {
		return h, fmt.Errorf("snapshot: version %d not in supported range [1, %d]", h.Version, GobVersion)
	}
	return h, nil
}
