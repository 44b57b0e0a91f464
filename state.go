package aovlis

// A detector's state as its records hold it. Records are flat (package
// internal/snapshot/flat, codec version 4): the model's sections first,
// then the detector's, with the tier gate's and the updater's when it has
// them. Records of versions 1 to 3 are gob messages behind a gob envelope
// (internal/snapshot); nothing writes them any more, and they keep
// loading through the readers at the end of this file.

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"aovlis/internal/ados"
	"aovlis/internal/core"
	"aovlis/internal/snapshot"
	"aovlis/internal/snapshot/flat"
	"aovlis/internal/update"
)

// detectorSnapWire is a detector's runtime beside its model: the sliding
// q-length windows, the stream counters, the tier gate's anchor, and the
// dynamic updater's buffered samples and drift sketches. A flat record is
// read into it; in versions 1 to 3 it is the gob payload after the
// envelope, whose version 1 also carried the retired ADOS filter's
// configuration and counters, which gob skips.
type detectorSnapWire struct {
	Config     Config
	Tau        float64
	ActWin     [][]float64
	AudWin     [][]float64
	Observed   int
	Detected   int
	HasTier    bool
	Tier       ados.TierState
	HasUpdater bool
	Updater    update.State
}

// sections returns d's sections, the optimiser's with runtime; a
// non-empty channel is named first.
func (d *Detector) sections(channel string, runtime bool) []flat.Section {
	var s []flat.Section
	if channel != "" {
		s = append(s, flat.Section{Tag: flat.TagChannel, Put: func(e *flat.Encoder) { e.Bytes([]byte(channel)) }})
	}
	s = append(append(s, d.model.Sections(runtime)...), flat.Section{Tag: flat.TagDetector, Put: func(e *flat.Encoder) {
		w := detectorSnapWire{Config: d.cfg, Tau: d.tau, Observed: d.observed, Detected: d.detected}
		rows := len(d.actWin)
		w.fields(e, &rows)
		for _, win := range [2][][]float64{d.actWin, d.audWin} {
			for _, row := range win {
				e.Floats(row)
			}
		}
	}})
	if d.tier != nil {
		s = append(s, flat.Section{Tag: flat.TagTier, Put: func(e *flat.Encoder) {
			st := d.tier.State()
			tierFields(e, &st)
			for _, v := range [][]float64{st.FAnchor, st.FHat, st.AHat} {
				e.Floats(v)
			}
		}})
	}
	if d.upd != nil {
		s = append(s, flat.Section{Tag: flat.TagUpdater, Put: d.upd.WriteFlat})
	}
	return s
}

// fields are the detector section's fixed fields; its window's action rows
// and then its audience rows follow them.
func (w *detectorSnapWire) fields(f flat.Fields, rows *int) {
	c := &w.Config
	f.Words(&c.ActionDim, &c.AudienceDim, &c.HiddenI, &c.HiddenA, &c.SeqLen, &c.Epochs, &c.Omega,
		&c.LearningRate, &c.TauQuantile, &c.EnableUpdate, &c.Tiered, &c.Update.MaxBuffer,
		&c.Update.TrainEpochs, (*int)(&c.Update.Mode), &c.Update.DriftThreshold, &c.Update.MergeWeight,
		&c.Update.Seed, &c.Tier.DriftMax, &c.Tier.Margin, &c.Tier.MaxRun, &c.Seed,
		&w.Tau, &w.Observed, &w.Detected, rows)
}

// tierFields are the tier section's fixed fields; the anchor's action
// feature and its two predictions, of the configuration's dims, follow.
func tierFields(f flat.Fields, st *ados.TierState) {
	f.Words(&st.Have, &st.Anomalous, &st.Run, &st.Stats.Gated, &st.Stats.Skipped, &st.Stats.Forced,
		&st.Stats.Drifted, &st.Stats.Unclear)
}

// readRecord reads a detector of kind from r, a flat record or a gob
// stream, and returns the channel it names. The model comes first: its
// weights are in the input before anything its dimensions size is
// allocated.
func readRecord(r io.Reader, kind flat.Kind) (*Detector, string, error) {
	dec, old, err := flat.Open(r, kind)
	switch {
	case old != nil && kind == flat.KindDetector:
		return restoreGob(old)
	case old != nil:
		return loadGob(old)
	case err != nil:
		return nil, "", err
	}
	var channel string
	if dec.Section(flat.TagChannel) {
		channel = string(dec.Bytes())
	}
	model, err := core.ReadModel(dec)
	if err != nil {
		return nil, "", err
	}
	var w detectorSnapWire
	var rows int
	if !dec.Section(flat.TagDetector) {
		return nil, "", errors.Join(dec.Err(), errors.New("aovlis: record holds no detector section"))
	}
	w.fields(dec, &rows)
	da, db := w.Config.ActionDim, w.Config.AudienceDim
	w.ActWin, w.AudWin = readRows(dec, rows, da), readRows(dec, rows, db)
	if w.HasTier = dec.Section(flat.TagTier); w.HasTier {
		tierFields(dec, &w.Tier)
		w.Tier.FAnchor, w.Tier.FHat, w.Tier.AHat = dec.Floats(da), dec.Floats(da), dec.Floats(db)
	}
	if w.HasUpdater = dec.Section(flat.TagUpdater); w.HasUpdater {
		w.Updater = update.ReadState(dec, da+db)
	}
	if err := dec.Close(); err != nil {
		return nil, "", fmt.Errorf("aovlis: decoding record: %w", err)
	}
	d, err := w.build(model, kind == flat.KindSavedDetector)
	return d, channel, err
}

// readRows reads n rows of dim floats, if the section holds them.
func readRows(dec *flat.Decoder, n, dim int) [][]float64 {
	if !dec.Fits(n, 8*dim) {
		return nil
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = dec.Floats(dim)
	}
	return rows
}

// build builds the detector w describes on its model: for a Save record
// (saved), a fresh window, tier gate and updater; for a snapshot, its
// runtime, once the state is known to belong to the configuration.
func (w *detectorSnapWire) build(model *core.Model, saved bool) (*Detector, error) {
	// The embedded model must be the one the detector configuration
	// implies: a mismatched pair would load "successfully" and then fail
	// (or mis-score) on every Observe.
	if mc := w.Config.modelConfig(); model.Config() != mc {
		return nil, fmt.Errorf("aovlis: snapshot model config %+v does not match detector config %+v", model.Config(), mc)
	}
	if saved {
		d := &Detector{cfg: w.Config, model: model, tau: w.Tau}
		err := w.Config.Validate()
		if err == nil {
			err = d.initRuntime(nil)
		}
		if err != nil {
			return nil, err
		}
		return d, nil
	}
	if err := w.validate(); err != nil {
		return nil, err
	}
	d := &Detector{
		cfg:      w.Config,
		model:    model,
		tau:      w.Tau,
		actWin:   ownRows(w.ActWin, w.Config.ActionDim),
		audWin:   ownRows(w.AudWin, w.Config.AudienceDim),
		observed: w.Observed,
		detected: w.Detected,
	}
	if w.Config.Tiered {
		tier, err := ados.NewTierPlan(w.Config.tierConfig(), w.Config.ActionDim, w.Config.AudienceDim)
		if err == nil {
			err = tier.SetState(w.Tier)
		}
		if err != nil {
			return nil, fmt.Errorf("aovlis: restoring tier gate: %w", err)
		}
		d.tier = tier
	}
	if w.HasUpdater {
		upd, err := update.New(model, d.cfg.Update)
		if err == nil {
			err = upd.SetState(w.Updater)
		}
		if err != nil {
			return nil, fmt.Errorf("aovlis: restoring updater: %w", err)
		}
		d.upd = upd
	}
	return d, nil
}

// validate rejects snapshot payloads whose runtime state cannot belong to
// the embedded configuration — corrupted or hand-edited streams should fail
// here, not as index panics mid-Observe.
func (w *detectorSnapWire) validate() error {
	if err := w.Config.Validate(); err != nil {
		return fmt.Errorf("aovlis: snapshot config: %w", err)
	}
	if len(w.ActWin) != len(w.AudWin) {
		return fmt.Errorf("aovlis: snapshot windows disagree: %d action vs %d audience rows", len(w.ActWin), len(w.AudWin))
	}
	if len(w.ActWin) > w.Config.SeqLen {
		return fmt.Errorf("aovlis: snapshot window has %d rows, config q is %d", len(w.ActWin), w.Config.SeqLen)
	}
	for i := range w.ActWin {
		if len(w.ActWin[i]) != w.Config.ActionDim || len(w.AudWin[i]) != w.Config.AudienceDim {
			return fmt.Errorf("aovlis: snapshot window row %d has dims %d/%d, config wants %d/%d",
				i, len(w.ActWin[i]), len(w.AudWin[i]), w.Config.ActionDim, w.Config.AudienceDim)
		}
	}
	if w.Observed < 0 || w.Detected < 0 {
		return fmt.Errorf("aovlis: snapshot counters negative (%d observed, %d detected)", w.Observed, w.Detected)
	}
	if w.HasTier != w.Config.Tiered {
		return fmt.Errorf("aovlis: snapshot tier state (%v) disagrees with Config.Tiered (%v)", w.HasTier, w.Config.Tiered)
	}
	if w.HasUpdater && !w.Config.EnableUpdate {
		return fmt.Errorf("aovlis: snapshot carries updater state but EnableUpdate is off")
	}
	if w.Config.EnableUpdate && !w.HasUpdater {
		// An uninterrupted EnableUpdate detector always owns an updater
		// (Train/initRuntime guarantee it); restoring without one would
		// silently never retrain again.
		return fmt.Errorf("aovlis: snapshot config enables updates but carries no updater state")
	}
	return nil
}

// loadGob reads a Save stream of versions 1 to 3: a gob message of the
// configuration and τ, then the model's stream.
func loadGob(r io.Reader) (*Detector, string, error) {
	var wire struct {
		Config Config
		Tau    float64
	}
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, "", fmt.Errorf("aovlis: decoding detector: %w", err)
	}
	model, err := core.LoadModel(r)
	if err != nil {
		return nil, "", err
	}
	d, err := (&detectorSnapWire{Config: wire.Config, Tau: wire.Tau}).build(model, true)
	return d, "", err
}

// restoreGob reads a detector snapshot of versions 1 to 3, or a channel
// export of them — the snapshot behind a KindChannelExport envelope and a
// gob message naming the channel — and returns the channel it names.
func restoreGob(r io.Reader) (*Detector, string, error) {
	h, err := snapshot.ReadHeaderAny(r)
	if err != nil {
		return nil, "", err
	}
	var export struct{ ID string }
	if h.Kind == snapshot.KindChannelExport {
		if err := gob.NewDecoder(r).Decode(&export); err != nil {
			return nil, "", fmt.Errorf("aovlis: decoding channel export manifest: %w", err)
		}
		if export.ID == "" {
			return nil, "", fmt.Errorf("aovlis: channel export manifest names no channel id")
		}
		if _, err := snapshot.ReadHeader(r, snapshot.KindDetector); err != nil {
			return nil, "", err
		}
	} else if h.Kind != snapshot.KindDetector {
		return nil, "", fmt.Errorf("snapshot: kind %q, want %q", h.Kind, snapshot.KindDetector)
	}
	var wire detectorSnapWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, "", fmt.Errorf("aovlis: decoding detector snapshot: %w", err)
	}
	model, err := core.LoadModel(r)
	if err != nil {
		return nil, "", err
	}
	d, err := wire.build(model, false)
	return d, export.ID, err
}
