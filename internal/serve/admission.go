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
//     never discarded by admission control — rejection happens strictly at
//     the front door.
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

// AdmissionConfig parameterises overload control. Both watermarks are
// fractions of Config.QueueDepth: rejection starts when one shard's queue
// reaches the high watermark and ends when every shard's queue has drained
// to the low watermark. Low must sit strictly below high — the gap is the
// hysteresis band.
type AdmissionConfig struct {
	// Enabled turns admission control on. Disabled (the zero value) leaves
	// the overflow policy alone to decide.
	Enabled bool
	// RejectHighFrac/RejectLowFrac are the high and low watermarks.
	RejectHighFrac float64
	RejectLowFrac  float64
}

// DefaultAdmissionConfig returns the shipped watermarks: reject at 90%
// full queues, admit again at ¼.
func DefaultAdmissionConfig() AdmissionConfig {
	return AdmissionConfig{Enabled: true, RejectHighFrac: 0.90, RejectLowFrac: 0.25}
}

// Validate reports the first invalid watermark. The zero value (disabled)
// is valid.
func (c AdmissionConfig) Validate() error {
	if !c.Enabled {
		return nil
	}
	if high := c.RejectHighFrac; !(high > 0 && high <= 1) {
		return fmt.Errorf("serve: admission high watermark must be in (0,1], got %v", high)
	}
	if low := c.RejectLowFrac; !(low >= 0 && low < c.RejectHighFrac) {
		return fmt.Errorf("serve: admission low watermark must be in [0, high), got %v (high %v)", low, c.RejectHighFrac)
	}
	return nil
}

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
	a.high = int(cfg.RejectHighFrac * depth)
	if float64(a.high) < cfg.RejectHighFrac*depth {
		a.high++
	}
	a.high = max(a.high, 1)
	a.low = min(int(cfg.RejectLowFrac*depth), a.high-1)
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
