package serve

// Kill-and-restart integration tests for the ingest WAL (ISSUE 9): a pool
// rebuilt after an abrupt crash must replay its journal tail and continue
// every channel bit-identically to a reference pool that never stopped —
// including when the crash tears the final journal record, and when the
// replay floor comes from a checkpoint manifest. Run under -race this is
// also the shard-confinement proof for the journal/sink hot path.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"aovlis"
	"aovlis/internal/snapshot/manifest"
	"aovlis/internal/wal"
)

// walTestStream drives total steps for each channel through pool, returning
// the per-channel result sequences in submission order.
func walTestStream(t *testing.T, p *DetectorPool, ids []string, series map[string][2][][]float64, from, to int) map[string][]aovlis.Result {
	t.Helper()
	got := make(map[string][]aovlis.Result, len(ids))
	for step := from; step < to; step++ {
		for _, id := range ids {
			s := series[id]
			res, err := p.Observe(id, s[0][step], s[1][step])
			if err != nil {
				t.Fatalf("channel %s step %d: %v", id, step, err)
			}
			got[id] = append(got[id], res)
		}
	}
	return got
}

// walTestPool builds a pool with channels cloned from tmpl.
func walTestPool(t *testing.T, tmpl *aovlis.Detector, ids []string) *DetectorPool {
	t.Helper()
	p := newTestPool(t, Config{Shards: 3, QueueDepth: 64})
	for _, id := range ids {
		det, err := tmpl.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Attach(id, det); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func requireSameSequences(t *testing.T, label string, want, got map[string][]aovlis.Result) {
	t.Helper()
	for id, w := range want {
		g := got[id]
		if len(g) != len(w) {
			t.Fatalf("%s: channel %s has %d verdicts, want %d", label, id, len(g), len(w))
		}
		for i := range w {
			if !sameResult(w[i], g[i]) {
				t.Fatalf("%s: channel %s verdict %d diverged: %+v vs %+v", label, id, i, g[i], w[i])
			}
		}
	}
}

// crashAndReplay simulates a kill -9 after firstLeg acknowledged
// observations: the crashed pool's in-memory state is discarded, a fresh
// pool is rebuilt from the detector template (no checkpoint), the journal
// is recovered from walDir and replayed, and the journal is re-attached
// for the second leg. Returns the replayed verdicts and the revived pool.
func crashAndReplay(t *testing.T, tmpl *aovlis.Detector, ids []string, walDir string) (map[string][]aovlis.Result, *DetectorPool) {
	t.Helper()
	recovered, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatalf("reopen wal: %v", err)
	}
	t.Cleanup(func() { recovered.Close() })

	revived := walTestPool(t, tmpl, ids)
	replayed := make(map[string][]aovlis.Result, len(ids))
	if err := recovered.Replay(func(r wal.Record) error {
		res, err := revived.ReplayObserve(r.Channel, r.Seq, r.Action, r.Audience)
		if err != nil {
			return fmt.Errorf("replay %s seq %d: %w", r.Channel, r.Seq, err)
		}
		replayed[r.Channel] = append(replayed[r.Channel], res)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	revived.AttachJournal(recovered, recovered.MaxSeqs())
	return replayed, revived
}

// captureJournal is a Journal recording per-channel append order; fail,
// when set, makes every Append return it.
type captureJournal struct {
	mu   sync.Mutex
	seqs map[string][]uint64
	fail error
}

func newCaptureJournal() *captureJournal {
	return &captureJournal{seqs: make(map[string][]uint64)}
}

func (j *captureJournal) Append(ch string, seq uint64, _, _ []float64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.fail != nil {
		return j.fail
	}
	j.seqs[ch] = append(j.seqs[ch], seq)
	return nil
}

// captureSink is a VerdictSink recording per-channel apply order.
type captureSink struct {
	mu   sync.Mutex
	seqs map[string][]uint64
}

func newCaptureSink() *captureSink { return &captureSink{seqs: make(map[string][]uint64)} }

func (s *captureSink) Record(ch string, seq uint64, _ aovlis.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seqs[ch] = append(s.seqs[ch], seq)
}

// TestSubmitJournalOrderUnderConcurrency pins the checkpoint-floor
// soundness invariant: with concurrent same-channel submitters, journal
// appends AND applies must both happen in sequence order per channel, so
// the CAS-max applied floor can never cover a journaled-but-unapplied
// record (which a checkpoint would then truncate away — silent loss of an
// acknowledged observation after a kill -9). Run under -race this also
// exercises submit's per-channel walMu.
func TestSubmitJournalOrderUnderConcurrency(t *testing.T) {
	const (
		channels = 3
		writers  = 8
		perW     = 60
	)
	p := newTestPool(t, Config{Shards: 2, QueueDepth: 16})
	ids := make([]string, channels)
	for i := range ids {
		ids[i] = fmt.Sprintf("ord-%d", i)
		if err := p.Attach(ids[i], &fakeDetector{}); err != nil {
			t.Fatal(err)
		}
	}
	j, sink := newCaptureJournal(), newCaptureSink()
	p.AttachVerdictSink(sink)
	p.AttachJournal(j, nil)

	var wg sync.WaitGroup
	for _, id := range ids {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				feat := []float64{1, 2}
				for k := 0; k < perW; k++ {
					if _, err := p.Observe(id, feat, feat[:1]); err != nil {
						t.Errorf("Observe(%s): %v", id, err)
						return
					}
				}
			}(id)
		}
	}
	wg.Wait()

	const total = writers * perW
	for _, id := range ids {
		if got := p.AppliedSeq(id); got != total {
			t.Fatalf("channel %s applied floor %d, want %d", id, got, total)
		}
		for label, seqs := range map[string][]uint64{"journal": j.seqs[id], "apply": sink.seqs[id]} {
			if len(seqs) != total {
				t.Fatalf("channel %s %s saw %d records, want %d", id, label, len(seqs), total)
			}
			for i, seq := range seqs {
				if seq != uint64(i+1) {
					t.Fatalf("channel %s %s order broken at %d: seq %d (want %d)", id, label, i, seq, i+1)
				}
			}
		}
	}
}

// orderDetector records the tag (action[0]) of every observation in the
// order it is applied, and counts the applies at which the channel's
// applied floor had already passed the observation being applied.
type orderDetector struct {
	p       *DetectorPool
	id      string
	tags    []float64
	passing int
}

func (d *orderDetector) Observe(action, _ []float64) (aovlis.Result, error) {
	if d.p.AppliedSeq(d.id) > uint64(len(d.tags)) {
		d.passing++
	}
	d.tags = append(d.tags, action[0])
	return aovlis.Result{Score: 0.1, Exact: true, Path: "exact"}, nil
}

// TestUnjournaledPoolNumbersEverySegment: a pool without a journal numbers
// every accepted observation with its channel's next sequence, the way a
// journaling pool does. One submitter sees 1..N in submit order; under
// concurrent same-channel submitters the observation numbered s is the
// s-th applied, so the applied floor never passes an unscored sequence.
func TestUnjournaledPoolNumbersEverySegment(t *testing.T) {
	const (
		writers = 8
		perW    = 60
	)
	p := newTestPool(t, Config{Shards: 2, QueueDepth: 16, Batch: 4})
	det := &orderDetector{p: p, id: "seq"}
	if err := p.Attach("seq", det); err != nil {
		t.Fatal(err)
	}
	sink := newCaptureSink()
	p.AttachVerdictSink(sink)

	out := make(chan Outcome, 1)
	for k := uint64(1); k <= perW; k++ {
		if err := p.SubmitInto("seq", []float64{0}, nil, out); err != nil {
			t.Fatal(err)
		}
		if o := <-out; o.Seq != k {
			t.Fatalf("submission %d numbered %d", k, o.Seq)
		}
	}

	seqOf := make([]map[float64]uint64, writers) // per writer: tag → sequence
	var wg sync.WaitGroup
	for w := range seqOf {
		seqOf[w] = make(map[float64]uint64, perW)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make(chan Outcome, 1)
			for k := 0; k < perW; k++ {
				tag := float64(1 + w*perW + k)
				if err := p.SubmitInto("seq", []float64{tag}, nil, out); err != nil {
					t.Error(err)
					return
				}
				seqOf[w][tag] = (<-out).Seq
			}
		}(w)
	}
	wg.Wait()
	const total = perW + writers*perW
	if got := p.AppliedSeq("seq"); got != total {
		t.Fatalf("applied floor %d, want %d", got, total)
	}
	p.Close() // the worker is gone: det is the test's to read
	if len(det.tags) != total || det.passing != 0 {
		t.Fatalf("%d applied, %d of them under a floor that had passed them; want %d and 0", len(det.tags), det.passing, total)
	}
	for w := range seqOf {
		for tag, seq := range seqOf[w] {
			if seq == 0 || seq > total || det.tags[seq-1] != tag {
				t.Fatalf("observation %v numbered %d, but that sequence applied another observation", tag, seq)
			}
		}
	}
	if len(sink.seqs["seq"]) != total {
		t.Fatalf("sink saw %d verdicts, want %d", len(sink.seqs["seq"]), total)
	}
	for i, seq := range sink.seqs["seq"] {
		if seq != uint64(i+1) {
			t.Fatalf("sink verdict %d carries sequence %d", i, seq)
		}
	}
}

// TestSubmitJournalRejectsAndRecovers pins two accept-path edges: a
// journal append failure must not burn a sequence number (the next accept
// reuses it, keeping the journal gap-free), and a mis-dimensioned
// observation must be refused before it reaches the journal at all — a
// record that can only score as an error would brick boot replay.
func TestSubmitJournalRejectsAndRecovers(t *testing.T) {
	p := newTestPool(t, Config{Shards: 1, QueueDepth: 8})
	// Only an *aovlis.Detector reports dims; a bare scorer has no check.
	if err := p.Attach("ch", trainTemplate(t)); err != nil {
		t.Fatal(err)
	}
	j := newCaptureJournal()
	p.AttachJournal(j, nil)
	acts, auds := testStream(5, 2)

	// Wrong dims (detector wants 16/6): refused up front, nothing journaled.
	if _, err := p.Observe("ch", []float64{1}, []float64{1, 2}); err == nil || !strings.Contains(err.Error(), "feature dims") {
		t.Fatalf("mis-dimensioned observe: %v, want feature-dims error", err)
	}
	if len(j.seqs["ch"]) != 0 {
		t.Fatalf("mis-dimensioned observation reached the journal: %v", j.seqs["ch"])
	}

	// Append failure: surfaced, and the burned sequence is released.
	j.fail = errors.New("disk on fire")
	if _, err := p.Observe("ch", acts[0], auds[0]); err == nil || !errors.Is(err, j.fail) {
		t.Fatalf("failed append observe: %v, want journal error", err)
	}
	j.fail = nil
	if _, err := p.Observe("ch", acts[1], auds[1]); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{1}; len(j.seqs["ch"]) != 1 || j.seqs["ch"][0] != want[0] {
		t.Fatalf("journal seqs %v, want %v (no gap after a failed append)", j.seqs["ch"], want)
	}
}

// TestDetachJournalsATombstone pins the channel's durable end: on a
// journaled pool Detach appends a tombstone as the channel's next sequence,
// a failed append leaves the channel attached (and burns no sequence), a
// submitter that resolved the channel before the detach cannot journal
// behind the tombstone, and a channel attached later under the same id
// numbers on above it — so a (channel, seq) pair names one record.
func TestDetachJournalsATombstone(t *testing.T) {
	p := newTestPool(t, Config{Shards: 1, QueueDepth: 8})
	if err := p.Attach("ch", &fakeDetector{}); err != nil {
		t.Fatal(err)
	}
	j := newCaptureJournal()
	p.AttachJournal(j, map[string]uint64{"gone-before-boot": 9})
	feat := []float64{1, 2}
	for i := 0; i < 3; i++ {
		if _, err := p.Observe("ch", feat, feat[:1]); err != nil {
			t.Fatal(err)
		}
	}

	j.fail = errors.New("disk on fire")
	if err := p.Detach("ch"); !errors.Is(err, j.fail) {
		t.Fatalf("Detach with a failing journal = %v, want its error", err)
	}
	if _, err := p.Stats("ch"); err != nil {
		t.Fatalf("a detach that could not be journaled removed the channel: %v", err)
	}
	j.fail = nil

	stale, _ := p.lookup("ch") // what a submitter racing the detach holds
	if err := p.Detach("ch"); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{1, 2, 3, 4}; !reflect.DeepEqual(j.seqs["ch"], want) {
		t.Fatalf("journal seqs %v, want %v (the tombstone is seq 4)", j.seqs["ch"], want)
	}
	stale.seqMu.Lock()
	tombstoned := stale.tombstoned
	stale.seqMu.Unlock()
	if !tombstoned {
		t.Fatal("detached channel not marked: a racing submitter could journal behind the tombstone")
	}
	// A checkpoint counts both retired ids' records as covered up to their
	// tombstones; neither is in its manifest.
	rep, err := p.Snapshot(t.TempDir())
	if want := map[string]uint64{"ch": 4, "gone-before-boot": 9}; err != nil || !reflect.DeepEqual(rep.Floors, want) {
		t.Fatalf("checkpoint floors %v (%v), want %v", rep.Floors, err, want)
	}

	if err := p.Attach("ch", &fakeDetector{}); err != nil {
		t.Fatal(err)
	}
	if got := p.AppliedSeq("ch"); got != 4 {
		t.Fatalf("new incarnation's checkpoint floor %d, want the tombstone's 4", got)
	}
	if _, err := p.Observe("ch", feat, feat[:1]); err != nil {
		t.Fatal(err)
	}
	if got := j.seqs["ch"]; got[len(got)-1] != 5 {
		t.Fatalf("new incarnation's first record is seq %d, want 5 (all: %v)", got[len(got)-1], got)
	}
	if rep, err = p.Snapshot(t.TempDir()); err != nil || len(rep.Skipped) != 1 || !reflect.DeepEqual(rep.Floors, map[string]uint64{"gone-before-boot": 9}) {
		t.Fatalf("checkpoint after the re-attach: %+v (%v), want ch skipped (a fake) and no longer retired", rep, err)
	}
}

// parkedDetector parks its first Observe until gate closes, then scores
// through det.
type parkedDetector struct {
	det     *aovlis.Detector
	once    sync.Once
	entered chan struct{} // closed once the first Observe has parked
	gate    chan struct{}
}

func (d *parkedDetector) Observe(action, audience []float64) (aovlis.Result, error) {
	d.once.Do(func() {
		close(d.entered)
		<-d.gate
	})
	return d.det.Observe(action, audience)
}

// teeJournal appends every record to each of its journals in turn.
type teeJournal []Journal

func (js teeJournal) Append(ch string, seq uint64, action, audience []float64) error {
	for _, j := range js {
		if err := j.Append(ch, seq, action, audience); err != nil {
			return err
		}
	}
	return nil
}

// TestFullQueueWaitsSoJournalEqualsScored pins the overload rule that keeps
// exactly-once whole: a journaled submitter that meets a full shard queue
// waits for space instead of returning, so every journaled record is scored
// and boot replay applies only what the live run scored. Were the third
// submitter to return instead, the journal would hold seqs 1–3 while the
// pool scored two, and replay would apply a segment the live run never saw.
func TestFullQueueWaitsSoJournalEqualsScored(t *testing.T) {
	const total = 24
	tmpl := trainTemplate(t)
	act, aud := channelSeries(7100, total)
	walDir := t.TempDir()
	j, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := newTestPool(t, Config{Shards: 1, QueueDepth: 1})
	det, err := tmpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	parked := &parkedDetector{det: det, entered: make(chan struct{}), gate: make(chan struct{})}
	var open sync.Once
	release := func() { open.Do(func() { close(parked.gate) }) }
	t.Cleanup(release)
	if err := p.Attach("full", parked); err != nil {
		t.Fatal(err)
	}
	journaled := newCaptureJournal()
	p.AttachJournal(teeJournal{j, journaled}, nil)

	outs := make([]chan Outcome, total)
	submit := func(i int) {
		outs[i] = make(chan Outcome, 1)
		if err := p.SubmitInto("full", act[i], aud[i], outs[i]); err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
	}
	// Seq 1 parks in the detector and seq 2 fills the depth-1 queue.
	submit(0)
	<-parked.entered
	submit(1)
	third := make(chan error, 1)
	go func() {
		outs[2] = make(chan Outcome, 1)
		third <- p.SubmitInto("full", act[2], aud[2], outs[2])
	}()
	waitFor(t, func() bool {
		journaled.mu.Lock()
		defer journaled.mu.Unlock()
		return len(journaled.seqs["full"]) == 3
	})
	select {
	case err := <-third:
		t.Fatalf("a submitter at a full queue returned (%v) instead of waiting", err)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	if err := <-third; err != nil {
		t.Fatal(err)
	}
	for i := 3; i < total; i++ {
		submit(i)
	}

	live := make([]aovlis.Result, total)
	scored := make([]uint64, total)
	for i, out := range outs {
		o := <-out
		if o.Err != nil {
			t.Fatalf("segment %d: %v", i, o.Err)
		}
		live[i], scored[i] = o.Result, o.Seq
	}
	if !reflect.DeepEqual(journaled.seqs["full"], scored) {
		t.Fatalf("journaled seqs %v, scored seqs %v", journaled.seqs["full"], scored)
	}
	if err := p.Close(); err != nil { // kill: drop state, keep disk
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, _ := crashAndReplay(t, tmpl, []string{"full"}, walDir)
	requireSameSequences(t, "replay after a full queue", map[string][]aovlis.Result{"full": live}, replayed)
}

// TestPoolWALKillAndReplayBitIdentical is the crash drill without a
// checkpoint: every acknowledged observation must survive a kill -9
// through the journal alone, and the revived pool's verdicts — both the
// replayed first leg and the live second leg — must be bit-identical to
// an uninterrupted reference run.
func TestPoolWALKillAndReplayBitIdentical(t *testing.T) {
	const (
		channels = 5
		firstLeg = 17
		total    = 40
	)
	tmpl := trainTemplate(t)
	ids := make([]string, channels)
	series := make(map[string][2][][]float64, channels)
	for i := range ids {
		ids[i] = fmt.Sprintf("wal-%d", i)
		act, aud := channelSeries(900+int64(i), total)
		series[ids[i]] = [2][][]float64{act, aud}
	}

	// Reference: one pool, never interrupted.
	ref := walTestPool(t, tmpl, ids)
	refResults := walTestStream(t, ref, ids, series, 0, total)

	// Victim: journal attached, killed (state abandoned, journal left
	// as-is on disk) after firstLeg acknowledged observations.
	walDir := t.TempDir()
	j, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	victim := walTestPool(t, tmpl, ids)
	victim.AttachJournal(j, nil)
	firstResults := walTestStream(t, victim, ids, series, 0, firstLeg)
	if err := victim.Close(); err != nil { // kill: drop state, keep disk
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	replayed, revived := crashAndReplay(t, tmpl, ids, walDir)
	for id, want := range refResults {
		requireSameSequences(t, "replayed leg", map[string][]aovlis.Result{id: want[:firstLeg]}, map[string][]aovlis.Result{id: replayed[id]})
		requireSameSequences(t, "pre-crash leg", map[string][]aovlis.Result{id: want[:firstLeg]}, map[string][]aovlis.Result{id: firstResults[id]})
		if got := revived.AppliedSeq(id); got != firstLeg {
			t.Fatalf("channel %s applied floor %d after replay, want %d", id, got, firstLeg)
		}
	}
	secondResults := walTestStream(t, revived, ids, series, firstLeg, total)
	for id, want := range refResults {
		requireSameSequences(t, "post-crash leg", map[string][]aovlis.Result{id: want[firstLeg:]}, map[string][]aovlis.Result{id: secondResults[id]})
	}
}

// TestPoolWALReplayTornFinalRecord repeats the crash drill with a torn
// final record — the expected artifact of a kill -9 mid-write. The torn
// frame was never fsynced, so it was never acknowledged; recovery must
// drop it silently and the replayed history must still be bit-identical.
func TestPoolWALReplayTornFinalRecord(t *testing.T) {
	const (
		channels = 3
		firstLeg = 12
		total    = 24
	)
	tmpl := trainTemplate(t)
	ids := make([]string, channels)
	series := make(map[string][2][][]float64, channels)
	for i := range ids {
		ids[i] = fmt.Sprintf("torn-%d", i)
		act, aud := channelSeries(3100+int64(i), total)
		series[ids[i]] = [2][][]float64{act, aud}
	}

	ref := walTestPool(t, tmpl, ids)
	refResults := walTestStream(t, ref, ids, series, 0, total)

	walDir := t.TempDir()
	j, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	victim := walTestPool(t, tmpl, ids)
	victim.AttachJournal(j, nil)
	walTestStream(t, victim, ids, series, 0, firstLeg)
	if err := victim.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: append a prefix of a valid frame to the last
	// segment, as if the process died mid-write.
	segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	torn := wal.AppendRecord(nil, wal.Record{
		Channel:  ids[0],
		Seq:      uint64(firstLeg + 1),
		Action:   series[ids[0]][0][firstLeg],
		Audience: series[ids[0]][1][firstLeg],
	})
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-7]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	replayed, revived := crashAndReplay(t, tmpl, ids, walDir)
	for id, want := range refResults {
		requireSameSequences(t, "torn replay", map[string][]aovlis.Result{id: want[:firstLeg]}, map[string][]aovlis.Result{id: replayed[id]})
	}
	secondResults := walTestStream(t, revived, ids, series, firstLeg, total)
	for id, want := range refResults {
		requireSameSequences(t, "torn post-crash", map[string][]aovlis.Result{id: want[firstLeg:]}, map[string][]aovlis.Result{id: secondResults[id]})
	}
}

// TestPoolWALReplayAfterCheckpointFloor is the full daemon boot path in
// miniature: checkpoint mid-stream (recording per-channel WAL floors in
// the manifest), truncate covered journal segments, keep streaming, crash,
// then restore the snapshot and replay only the journal records above each
// channel's manifest floor. The result must still be bit-identical, with
// no record applied twice.
func TestPoolWALReplayAfterCheckpointFloor(t *testing.T) {
	const (
		channels   = 4
		checkpoint = 10
		crashAt    = 19
		total      = 32
	)
	tmpl := trainTemplate(t)
	ids := make([]string, channels)
	series := make(map[string][2][][]float64, channels)
	for i := range ids {
		ids[i] = fmt.Sprintf("floor-%d", i)
		act, aud := channelSeries(5200+int64(i), total)
		series[ids[i]] = [2][][]float64{act, aud}
	}

	ref := walTestPool(t, tmpl, ids)
	refResults := walTestStream(t, ref, ids, series, 0, total)

	walDir, snapDir := t.TempDir(), t.TempDir()
	// Tiny segments force rotation so Truncate has sealed segments to drop.
	j, err := wal.Open(walDir, wal.Options{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	victim := walTestPool(t, tmpl, ids)
	victim.AttachJournal(j, nil)
	walTestStream(t, victim, ids, series, 0, checkpoint)

	// Daemon checkpoint order: snapshot, then truncate the journal up to
	// the manifest's per-channel floors.
	if _, err := victim.Snapshot(snapDir); err != nil {
		t.Fatal(err)
	}
	m, err := manifest.Read(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	cover := make(map[string]uint64, len(m.Channels))
	for _, e := range m.Channels {
		if e.WALSeq != checkpoint {
			t.Fatalf("manifest floor for %s is %d, want %d", e.ID, e.WALSeq, checkpoint)
		}
		cover[e.ID] = e.WALSeq
	}
	if _, err := j.Truncate(cover); err != nil {
		t.Fatal(err)
	}

	walTestStream(t, victim, ids, series, checkpoint, crashAt)
	if err := victim.Close(); err != nil { // kill -9: manifest + journal survive
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Boot: restore the checkpoint, replay the journal tail above each
	// channel's floor, seed the sequence counters, serve.
	recovered, err := wal.Open(walDir, wal.Options{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recovered.Close() })
	revived, err := restoreDir(snapDir, Config{Shards: 2, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { revived.Close() })

	floors := make(map[string]uint64, len(m.Channels))
	for _, e := range m.Channels {
		floors[e.ID] = e.WALSeq
	}
	replayCount := make(map[string]int, channels)
	if err := recovered.Replay(func(r wal.Record) error {
		if r.Seq <= floors[r.Channel] {
			return nil // covered by the checkpoint
		}
		if _, err := revived.ReplayObserve(r.Channel, r.Seq, r.Action, r.Audience); err != nil {
			return fmt.Errorf("replay %s seq %d: %w", r.Channel, r.Seq, err)
		}
		replayCount[r.Channel]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	seed := recovered.MaxSeqs()
	for id, floor := range floors {
		if floor > seed[id] {
			seed[id] = floor
		}
	}
	revived.AttachJournal(recovered, seed)

	for _, id := range ids {
		if replayCount[id] != crashAt-checkpoint {
			t.Fatalf("channel %s replayed %d records, want %d", id, replayCount[id], crashAt-checkpoint)
		}
		if got := revived.AppliedSeq(id); got != crashAt {
			t.Fatalf("channel %s applied floor %d, want %d", id, got, crashAt)
		}
	}
	secondResults := walTestStream(t, revived, ids, series, crashAt, total)
	for id, want := range refResults {
		requireSameSequences(t, "floor post-crash", map[string][]aovlis.Result{id: want[crashAt:]}, map[string][]aovlis.Result{id: secondResults[id]})
	}
}
