package serve

// Overload control is accept-or-reject: watermark-based admission with
// hysteresis. The pool watches its shard queue depths and walks a two-state
// machine:
//
//	normal ──(one shard's depth ≥ high)──▶ reject
//	normal ◀──(every shard's depth ≤ low)── reject
//
//   - normal: every submission is admitted.
//   - reject: new submissions fail fast with ErrRejected, which the daemon
//     maps to 429 + Retry-After. Segments already accepted into a queue are
//     never discarded — rejection happens strictly at the front door, and a
//     full queue makes its submitter wait.
//
// Admission never touches how an accepted segment is scored: a verdict is a
// function of the saved detector and the stream, whatever the load.
//
// Raising is done on the submit path from the submitting shard's queue
// depth (one channel len read and, rarely, one CAS); lowering is done by
// shard workers after each scored job from the maximum depth across all
// shards. The high/low watermark split is the hysteresis: the pool must
// drain well below the trigger depth before it admits again, so a queue
// hovering at the boundary cannot flap the state per segment.
//
// See ARCHITECTURE.md §12 for the full state-machine argument.

import (
	"fmt"
	"sync/atomic"
)

// AdmissionState is the pool's overload-control state.
type AdmissionState int32

const (
	// AdmitNormal admits everything.
	AdmitNormal AdmissionState = iota
	// AdmitReject refuses new submissions with ErrRejected; accepted
	// segments keep draining.
	AdmitReject
)

// String names the state (also the /healthz encoding; /metrics exports the
// number).
func (s AdmissionState) String() string {
	switch s {
	case AdmitNormal:
		return "normal"
	case AdmitReject:
		return "reject"
	default:
		return fmt.Sprintf("AdmissionState(%d)", int32(s))
	}
}

// AdmissionConfig turns overload control on or off. The watermarks are
// fixed: rejection starts when one shard's queue reaches 90 % of
// Config.QueueDepth and ends when every shard's queue has drained to ¼.
type AdmissionConfig struct {
	// Enabled turns admission control on. With it off (the zero value),
	// nothing is refused: a full queue only makes its submitters wait.
	Enabled bool
}

// DefaultAdmissionConfig returns admission control enabled.
func DefaultAdmissionConfig() AdmissionConfig { return AdmissionConfig{Enabled: true} }

// The watermarks, as fractions of the queue depth. The gap between them is
// the hysteresis band.
const (
	rejectHighFrac = 0.90
	rejectLowFrac  = 0.25
)

// admission is the pool's overload-control state machine. All fields but
// the atomics are frozen at construction.
type admission struct {
	enabled bool
	// Absolute queue depths derived from the fractional watermarks.
	high, low int

	state atomic.Int32

	// transitions counts state changes (exported as a metrics counter).
	transitions atomic.Uint64
}

// newAdmission derives absolute watermarks. The high watermark rounds up (a
// fraction of a slot cannot trigger) and is at least 1; the low watermark
// rounds down and stays strictly below it.
func newAdmission(cfg AdmissionConfig, queueDepth int) *admission {
	a := &admission{enabled: cfg.Enabled}
	if !cfg.Enabled {
		return a
	}
	depth := float64(queueDepth)
	a.high = int(rejectHighFrac * depth)
	if float64(a.high) < rejectHighFrac*depth {
		a.high++
	}
	a.high = max(a.high, 1)
	a.low = min(int(rejectLowFrac*depth), a.high-1)
	return a
}

// current returns the state.
func (a *admission) current() AdmissionState { return AdmissionState(a.state.Load()) }

// admit evaluates one submission against the submitting shard's queue
// depth, raising the state if the high watermark is crossed, and returns
// the state the submission must obey. The hot path for an unloaded pool is
// one integer compare and one atomic load.
func (a *admission) admit(depth int) AdmissionState {
	if !a.enabled {
		return AdmitNormal
	}
	if depth >= a.high {
		a.move(AdmitNormal, AdmitReject)
		return AdmitReject
	}
	return a.current()
}

// relax returns to normal once the maximum queue depth across shards has
// drained to the low watermark. Called by shard workers after each scored
// job.
func (a *admission) relax(maxDepth int) {
	if a.enabled && maxDepth <= a.low {
		a.move(AdmitReject, AdmitNormal)
	}
}

// move performs the from → to transition if the state is still from. The
// load comes first so the common no-op (a relax while normal, a refusal
// while rejecting) never takes the state's cache line for writing.
func (a *admission) move(from, to AdmissionState) {
	if a.current() == from && a.state.CompareAndSwap(int32(from), int32(to)) {
		a.transitions.Add(1)
	}
}

// AdmissionState returns the pool's current overload-control state
// (AdmitNormal when admission control is disabled).
func (p *DetectorPool) AdmissionState() AdmissionState { return p.adm.current() }

// maxQueueDepth returns the deepest shard queue right now.
func (p *DetectorPool) maxQueueDepth() int {
	max := 0
	for _, s := range p.shards {
		if n := len(s.queue); n > max {
			max = n
		}
	}
	return max
}
