// Package core implements the primary contribution of the AOVLIS paper:
// the Coupling LSTM (CLSTM) behaviour-prediction model (Eq. 1-13), the
// reconstruction-error anomaly score REIA (Eq. 14-16), and the sequence
// construction that feeds video-segment feature series into the model.
//
// Two coupled LSTM layers model the influencer (LSTM_I, over action
// recognition features) and the audience (LSTM_A, over audience interaction
// features). Each layer's gates read the previous hidden state of the other
// layer, capturing the mutual influence between presenter and audience that
// the paper identifies as the defining property of live social video.
package core

import (
	"fmt"

	"aovlis/internal/nn"
)

// Coupling selects how much cross-stream influence the model wires in.
// The paper's evaluation compares all three settings (CLSTM, CLSTM-S, LSTM).
type Coupling int

const (
	// CouplingFull is the paper's CLSTM: LSTM_I gates read [h_{t-1}, g_{t-1}, f_t]
	// and LSTM_A gates read [h_{t-1}, g_{t-1}, a_t] — two-way mutual influence.
	CouplingFull Coupling = iota
	// CouplingOneWay is CLSTM-S: only the influencer→audience direction is
	// wired (LSTM_A sees h_{t-1}; LSTM_I does not see g_{t-1}).
	CouplingOneWay
	// CouplingNone runs two independent LSTMs (the ablation floor; the
	// paper's plain-LSTM baseline additionally ignores the audience stream,
	// which callers obtain by scoring with ω=1).
	CouplingNone
)

// String names the coupling mode the way the paper does.
func (c Coupling) String() string {
	switch c {
	case CouplingFull:
		return "CLSTM"
	case CouplingOneWay:
		return "CLSTM-S"
	case CouplingNone:
		return "LSTM"
	default:
		return fmt.Sprintf("Coupling(%d)", int(c))
	}
}

// Config parameterises a CLSTM model.
type Config struct {
	// ActionDim is d1, the dimensionality of the action recognition feature
	// (400 in the paper's ResNet50-I3D setup).
	ActionDim int
	// AudienceDim is d2, the dimensionality of the audience interaction
	// feature (counts k-tuple ‖ word embedding ‖ sentiment).
	AudienceDim int
	// HiddenI and HiddenA are the hidden sizes h1 and h2 of LSTM_I / LSTM_A.
	HiddenI int
	HiddenA int
	// SeqLen is q, the input sequence length (9 in the paper: a 250-frame
	// time slot covered by 64-frame segments at stride 25).
	SeqLen int
	// Omega is ω, the weight of the action-feature reconstruction error in
	// both the training loss (Eq. 13) and the REIA score (Eq. 16).
	Omega float64
	// Loss selects the action-stream reconstruction loss (Table I compares
	// L2, KL and JS; the paper selects JS).
	Loss nn.LossKind
	// LearningRate is the Adam learning rate (0.001 in the paper).
	LearningRate float64
	// Coupling selects CLSTM / CLSTM-S / independent LSTMs.
	Coupling Coupling
	// Seed fixes parameter initialisation for reproducibility.
	Seed int64
}

// DefaultConfig returns the paper's configuration scaled to the given
// feature dimensions.
func DefaultConfig(actionDim, audienceDim int) Config {
	return Config{
		ActionDim:    actionDim,
		AudienceDim:  audienceDim,
		HiddenI:      64,
		HiddenA:      32,
		SeqLen:       9,
		Omega:        0.8,
		Loss:         nn.LossJS,
		LearningRate: 0.001,
		Coupling:     CouplingFull,
		Seed:         1,
	}
}

// Validate reports the first configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.ActionDim <= 0:
		return fmt.Errorf("core: ActionDim must be positive, got %d", c.ActionDim)
	case c.AudienceDim <= 0:
		return fmt.Errorf("core: AudienceDim must be positive, got %d", c.AudienceDim)
	case c.HiddenI <= 0 || c.HiddenA <= 0:
		return fmt.Errorf("core: hidden sizes must be positive, got %d/%d", c.HiddenI, c.HiddenA)
	case c.SeqLen <= 0:
		return fmt.Errorf("core: SeqLen must be positive, got %d", c.SeqLen)
	case !(c.Omega >= 0 && c.Omega <= 1): // NaN too
		return fmt.Errorf("core: Omega must lie in [0,1], got %v", c.Omega)
	case !(c.LearningRate > 0):
		return fmt.Errorf("core: LearningRate must be positive, got %v", c.LearningRate)
	case c.Coupling < CouplingFull || c.Coupling > CouplingNone || c.Loss < nn.LossJS || c.Loss > nn.LossL2:
		return fmt.Errorf("core: unknown coupling %v or loss %v", c.Coupling, c.Loss)
	}
	return nil
}

// ctxDims returns the gate-context dimensions of LSTM_I and LSTM_A under the
// configured coupling mode.
func (c Config) ctxDims() (ctxI, ctxA int) {
	switch c.Coupling {
	case CouplingFull:
		// [h, g, f] and [h, g, a]
		return c.HiddenI + c.HiddenA + c.ActionDim, c.HiddenI + c.HiddenA + c.AudienceDim
	case CouplingOneWay:
		// LSTM_I: [h, f]; LSTM_A: [h, g, a]
		return c.HiddenI + c.ActionDim, c.HiddenI + c.HiddenA + c.AudienceDim
	case CouplingNone:
		// [h, f] and [g, a]
		return c.HiddenI + c.ActionDim, c.HiddenA + c.AudienceDim
	default:
		panic(fmt.Sprintf("core: unknown coupling %d", c.Coupling))
	}
}
