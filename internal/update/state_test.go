package update

import "slices"

// State returns a copy of the updater's runtime state, as a record's
// updater section holds it, for tests to inspect.
func (u *Updater) State() State {
	da, db := u.model.Config().ActionDim, u.model.Config().AudienceDim
	log := make([]float64, u.rows*(da+db))
	for r := 0; r < u.rows; r++ {
		act, aud := u.row(r)
		copy(log[r*da:], act)
		copy(log[u.rows*da+r*db:], aud)
	}
	return State{
		HistorySum:     append([]float64(nil), u.history.sum...),
		HistoryCount:   u.history.count,
		IncomingSum:    append([]float64(nil), u.incoming.sum...),
		IncomingCount:  u.incoming.count,
		Log:            log,
		Offsets:        slices.Clone(u.offsets),
		LogEnd:         u.end,
		PrevWindowMean: u.prevWindowMean,
		CurWindowSum:   u.curWindowSum,
		CurWindowN:     u.curWindowN,
		Updates:        u.updates,
		Checks:         u.checks,
	}
}
