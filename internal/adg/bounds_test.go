package adg

// The bound computations only tests call: the detection path runs
// JointRepresentInto and REGUpperHybridInto on per-detector scratch.

// JointRepresent builds the joint representation of (f, fhat).
func (p *Partition) JointRepresent(f, fhat []float64) (*JointRep, error) {
	r := NewJointRep(p.N)
	if err := p.JointRepresentInto(r, f, fhat); err != nil {
		return nil, err
	}
	return r, nil
}

// REGUpper computes REG_I = Σ REg_i, the ADG upper bound of the JS
// divergence between the represented pair (Theorem 1).
func REGUpper(rep *JointRep) float64 {
	var total float64
	for g := range rep.Count {
		if rep.Count[g] == 0 {
			continue
		}
		total += groupBound(rep.FMax[g], rep.FMin[g], rep.GMax[g], rep.GMin[g], rep.FSum[g], rep.GSum[g])
	}
	return total
}

// REGUpperHybrid computes the refined bound with nsg exact groups.
func REGUpperHybrid(rep *JointRep, f, fhat []float64, nsg int) HybridBound {
	var hb HybridBound
	REGUpperHybridInto(&hb, rep, f, fhat, nsg)
	return hb
}
