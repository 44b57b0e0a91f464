package serve

// Crash-safe pool checkpointing (ISSUE 4): Snapshot captures every
// channel's full detector runtime into one snapshot file per channel plus a
// manifest, and RestorePool rebuilds an equivalent pool from that
// directory. The design goals, in order:
//
//  1. Consistency per channel: each channel is checkpointed at a segment
//     boundary. The shard worker executes jobs serially, so a control job
//     enqueued on the channel's shard runs with no Observe in flight on
//     that shard — a quiesce by construction, with no extra locking on the
//     Observe hot path.
//  2. No global stop-the-world: shards checkpoint independently, and within
//     a shard only the (fast, in-memory) state encoding happens inside the
//     worker; file writes happen on the snapshotting goroutine. Unrelated
//     shards never wait, which is what keeps Observe p99 bounded during a
//     concurrent snapshot (BENCH.md §5).
//  3. Crash safety: every file commits via atomic rename, and the manifest
//     commits last — a crash mid-snapshot leaves the previous manifest
//     pointing at the previous (complete) files.
//
// Cross-channel consistency is deliberately NOT promised: channels are
// checkpointed at independent segment boundaries (the snapshot is a set of
// per-channel point-in-time states, not a global cut). See ARCHITECTURE.md
// §9.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"aovlis"
	"aovlis/internal/durable"
	"aovlis/internal/snapshot"
	"aovlis/internal/snapshot/manifest"
	"aovlis/internal/wire"
)

// ErrNotSnapshottable is returned by ExportChannel when the channel is a
// bare scorer, not an *aovlis.Detector; Snapshot skips such channels and
// names them in its Report.
var ErrNotSnapshottable = errors.New("serve: channel is a bare scorer, not an *aovlis.Detector")

// ErrChannelIDMismatch is returned by DecodeSnapshot when the uploaded
// stream's embedded channel-export manifest names a different channel than
// the one the caller is attaching — almost always a mis-addressed migration
// PUT. Rejecting it up front keeps a channel's runtime from silently
// continuing under another channel's id (the daemon maps it to HTTP 400).
var ErrChannelIDMismatch = errors.New("serve: snapshot channel id does not match attach id")

// Report summarises one pool snapshot.
type Report struct {
	// Channels is the number of channel snapshots committed.
	Channels int `json:"channels"`
	// Skipped lists the bare-scorer channels, which have no checkpoint.
	Skipped []string `json:"skipped,omitempty"`
	// Bytes is the total committed snapshot payload.
	Bytes int64 `json:"bytes"`
	// Elapsed is the wall-clock duration of the whole snapshot, and
	// MaxQuiesce the longest any single channel spent quiesced (state
	// encoding inside its shard worker) — the per-shard pause upper bound.
	Elapsed    time.Duration `json:"elapsed_ns"`
	MaxQuiesce time.Duration `json:"max_quiesce_ns"`
	// Floors is what the snapshot lets a journal forget: per channel id,
	// the sequence at or below which every record is covered — a committed
	// channel's applied floor, and for an id detached before the snapshot
	// began (it is in no manifest) its tombstone's.
	Floors map[string]uint64 `json:"-"`
}

// WriteJSON writes rep as encoding/json writes it.
func (rep Report) WriteJSON(j *wire.JSON) {
	j.Object()
	j.Key("channels").Int(int64(rep.Channels))
	if len(rep.Skipped) > 0 {
		j.Key("skipped").Array()
		for _, id := range rep.Skipped {
			j.String(id)
		}
		j.EndArray()
	}
	j.Key("bytes").Int(rep.Bytes)
	j.Key("elapsed_ns").Int(int64(rep.Elapsed))
	j.Key("max_quiesce_ns").Int(int64(rep.MaxQuiesce))
	j.EndObject()
}

// channelFile maps a channel id and a snapshot generation to the file name
// the generation commits. PathEscape makes arbitrary ids filesystem-safe
// (no separators) while staying readable; the generation suffix keeps a new
// snapshot from renaming over the files the PREVIOUS manifest still
// references — a crash or error mid-snapshot must leave the directory
// restorable to the previous complete snapshot, so old-generation files may
// only disappear after the new manifest has committed.
func channelFile(id string, gen int64) string {
	return url.PathEscape(id) + "." + strconv.FormatInt(gen, 36) + ".snap"
}

// checkpointResidue reports whether name is a file a checkpoint writes
// into its directory besides the manifest: a channel file, or the staging
// file of a channel file or of the manifest — including the randomly
// suffixed staging names (".tmp-<random>") older releases left behind.
func checkpointResidue(name string) bool {
	return strings.HasSuffix(name, ".snap") || strings.Contains(name, ".snap.tmp") ||
		strings.HasPrefix(name, manifest.Name+".tmp")
}

// quiesce runs fn inside ch's shard worker between observations and waits
// for it to finish. The enqueue waits for queue space, as every send does
// (a checkpoint must not silently omit a busy channel). In
// micro-batched mode the worker flushes the observations drained ahead of
// the control job first, so fn still runs at a segment boundary in queue
// order.
func (p *DetectorPool) quiesce(ch *channel, fn func()) error {
	done := make(chan struct{})
	// Same gate as submit: the shard's read lock spans the send so Close
	// cannot close the queue under a blocked sender.
	if err := ch.shard.send(job{control: func() { fn(); close(done) }}); err != nil {
		return err
	}
	<-done
	return nil
}

// encodeQuiesced serialises ch's detector at a segment boundary: the
// encoding runs inside the shard worker (so no Observe is concurrent with
// it on that shard), the returned buffer is handed back to the caller for
// the slow file I/O. The returned duration is how long the shard was held.
func (p *DetectorPool) encodeQuiesced(ch *channel) (*bytes.Buffer, time.Duration, uint64, error) {
	var (
		buf     bytes.Buffer
		encErr  error
		quiesce time.Duration
		applied uint64
	)
	err := p.quiesce(ch, func() {
		start := time.Now()
		encErr = ch.aov.Snapshot(&buf)
		// Read the applied journal floor inside the quiesce: every job
		// queued before the control job has finished, so this is exactly
		// the sequence the encoded state covers.
		applied = ch.applied.Load()
		quiesce = time.Since(start)
		p.m.quiesce.Observe(quiesce.Seconds())
	})
	if err != nil {
		return nil, 0, 0, err
	}
	if encErr != nil {
		return nil, quiesce, 0, fmt.Errorf("serve: snapshotting channel %q: %w", ch.id, encErr)
	}
	return &buf, quiesce, applied, nil
}

// Snapshot checkpoints every attached channel into dir: one atomically
// committed file per channel plus a manifest (written last) that indexes
// them. Channels are quiesced one at a time per shard and only for the
// in-memory state encoding; Observe traffic on other shards proceeds
// untouched, and traffic on the same shard resumes as soon as the encoding
// is done. Snapshot is safe to call concurrently with SubmitInto/Observe; a
// second concurrent Snapshot into the same directory is not supported.
//
// On error no manifest is written, so the directory still restores to the
// previous complete snapshot (if any).
func (p *DetectorPool) Snapshot(dir string) (Report, error) {
	start := time.Now()
	gen := start.UnixNano()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Report{}, fmt.Errorf("serve: snapshot dir: %w", err)
	}

	// One view of who is attached and who is retired: an id retired by now
	// is in no later manifest, one retired mid-snapshot waits for the next.
	p.mu.Lock()
	chmap := *p.chans.Load()
	floors := make(map[string]uint64, len(chmap)+len(p.retired))
	for id, seq := range p.retired {
		floors[id] = seq
	}
	p.mu.Unlock()
	chans := make([]*channel, 0, len(chmap))
	for _, ch := range chmap {
		chans = append(chans, ch)
	}
	sort.Slice(chans, func(i, j int) bool { return chans[i].id < chans[j].id })

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex // guards report, entries, firstErr
		report   Report
		entries  []manifest.ChannelEntry
		firstErr error
	)
	for _, ch := range chans {
		if ch.aov == nil {
			report.Skipped = append(report.Skipped, ch.id)
			continue
		}
		wg.Add(1)
		go func(ch *channel) {
			defer wg.Done()
			// Encode inside the shard worker, write outside it. Channels on
			// the same shard serialise at the shard queue; channels on
			// different shards proceed in parallel.
			buf, quiesced, applied, err := p.encodeQuiesced(ch)
			var entry manifest.ChannelEntry
			if err == nil {
				b := buf.Bytes()
				sum := sha256.Sum256(b)
				entry = manifest.ChannelEntry{
					ID: ch.id, File: channelFile(ch.id, gen),
					Bytes: int64(len(b)), SHA256: hex.EncodeToString(sum[:]), Shard: ch.shard.index,
					WALSeq: applied,
				}
				err = durable.Commit(filepath.Join(dir, entry.File), b)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			entries = append(entries, entry)
			report.Channels++
			report.Bytes += entry.Bytes
			if quiesced > report.MaxQuiesce {
				report.MaxQuiesce = quiesced
			}
		}(ch)
	}
	wg.Wait()
	if firstErr != nil {
		return Report{}, firstErr
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
	m := manifest.Manifest{Version: snapshot.Version, UnixNanos: gen, Channels: entries}
	if err := manifest.Write(dir, m); err != nil {
		return Report{}, err
	}
	// Best-effort cleanup of snapshot files the just-committed manifest does
	// not reference: previous generations, channels detached since the last
	// snapshot, and orphans of failed snapshots — committed or still staged
	// (a channel file's staging name carries its generation, so no later
	// commit overwrites it). Safe only AFTER the manifest commit — until
	// then the old generation is the restore point.
	live := make(map[string]bool, len(entries))
	for _, e := range entries {
		live[e.File] = true
		floors[e.ID] = e.WALSeq
	}
	report.Floors = floors
	if dirents, err := os.ReadDir(dir); err == nil {
		for _, de := range dirents {
			if name := de.Name(); checkpointResidue(name) && !live[name] {
				os.Remove(filepath.Join(dir, name))
			}
		}
	}
	report.Elapsed = time.Since(start)
	return report, nil
}

// channelExportWire is the identity manifest serve.ExportChannel prepends
// (inside a KindChannelExport envelope) ahead of the detector snapshot, so
// the importing side can verify the stream belongs to the channel it is
// being attached under before restoring anything.
type channelExportWire struct {
	ID string
}

// ExportChannel streams one channel's quiesced snapshot to w and returns
// the applied sequence it covers — the sending half of channel migration:
// export from one pool, DecodeSnapshot and AttachAt that sequence into
// another (possibly in a different process). The stream opens
// with a channel-export envelope naming the channel id; DecodeSnapshot
// rejects an id mismatch with ErrChannelIDMismatch instead of attaching a
// foreign channel's runtime under the wrong id.
func (p *DetectorPool) ExportChannel(id string, w io.Writer) (uint64, error) {
	ch, ok := p.lookup(id)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownChannel, id)
	}
	if ch.aov == nil {
		return 0, fmt.Errorf("%w (channel %q)", ErrNotSnapshottable, id)
	}
	buf, _, applied, err := p.encodeQuiesced(ch)
	if err != nil {
		return 0, err
	}
	if err := snapshot.WriteHeader(w, snapshot.KindChannelExport); err != nil {
		return 0, err
	}
	if err := gob.NewEncoder(w).Encode(channelExportWire{ID: id}); err != nil {
		return 0, fmt.Errorf("serve: encoding channel export manifest: %w", err)
	}
	_, err = w.Write(buf.Bytes())
	return applied, err
}

// DecodeSnapshot restores a detector from a Snapshot/ExportChannel stream
// for attaching under id — the receiving half of channel migration, which
// a caller completes with AttachAt after vetting the detector. The restored
// channel resumes mid-window exactly where the exported one stopped.
//
// Two stream formats are accepted: a channel-export wrapper (ExportChannel
// emits it; the embedded channel id must equal id or decoding fails with
// ErrChannelIDMismatch) and a bare detector snapshot (pool checkpoint files
// and pre-export-envelope clients), which carries no id to verify.
func DecodeSnapshot(id string, r io.Reader) (*aovlis.Detector, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	// Dispatch on the envelope kind without consuming it: the header is
	// decoded from a peeked prefix, so a bare detector stream can still be
	// handed to RestoreDetector from the start.
	if prefix, _ := br.Peek(1024); len(prefix) > 0 {
		var hdr snapshot.Header
		if err := gob.NewDecoder(bytes.NewReader(prefix)).Decode(&hdr); err == nil && hdr.Kind == snapshot.KindChannelExport {
			if _, err := snapshot.ReadHeaderAny(br); err != nil {
				return nil, err
			}
			var wire channelExportWire
			if err := gob.NewDecoder(br).Decode(&wire); err != nil {
				return nil, fmt.Errorf("serve: decoding channel export manifest: %w", err)
			}
			if wire.ID == "" {
				return nil, fmt.Errorf("serve: channel export manifest names no channel id")
			}
			if wire.ID != id {
				return nil, fmt.Errorf("%w: stream exports %q, attaching as %q", ErrChannelIDMismatch, wire.ID, id)
			}
		}
	}
	return aovlis.RestoreDetector(br)
}

// RestorePool rebuilds a pool from a Snapshot directory and the manifest
// its caller read from it: it reads each entry's file once, checks its
// size and checksum, restores the channel's detector from those bytes,
// and attaches it to a fresh pool with configuration cfg at the entry's
// WALSeq, so a warm restart does not reuse a sequence. Any failure
// closes the pool and returns the error. Shard assignment is re-derived
// from the channel ids, so cfg.Shards may differ from the snapshotted
// pool's.
func RestorePool(dir string, m manifest.Manifest, cfg Config) (*DetectorPool, error) {
	p, err := NewDetectorPool(cfg)
	if err != nil {
		return nil, err
	}
	for _, e := range m.Channels {
		b, err := manifest.ReadEntry(dir, e)
		if err == nil {
			var det *aovlis.Detector
			if det, err = DecodeSnapshot(e.ID, bytes.NewReader(b)); err == nil {
				err = p.AttachAt(e.ID, det, e.WALSeq)
			}
		}
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("serve: restoring channel %q: %w", e.ID, err)
		}
	}
	return p, nil
}
