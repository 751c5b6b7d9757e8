package hw

// BranchPredictor simulates a single branch site's 2-bit saturating-counter
// predictor, the textbook dynamic predictor that drives the selectivity-
// dependent behaviour of the branching selection primitive (Figure 1 of the
// paper, and Ross, "Selection conditions in main memory", TODS 2004).
//
// States 0,1 predict not-taken; states 2,3 predict taken. The zero value is
// a valid predictor biased to not-taken.
type BranchPredictor struct {
	state uint8
}

// Record feeds one actual branch outcome and reports whether the predictor
// mispredicted it, then trains the counter.
func (p *BranchPredictor) Record(taken bool) (mispredict bool) {
	predictTaken := p.state >= 2
	mispredict = predictTaken != taken
	if taken {
		if p.state < 3 {
			p.state++
		}
	} else {
		if p.state > 0 {
			p.state--
		}
	}
	return mispredict
}

// Reset returns the predictor to its initial not-taken bias.
func (p *BranchPredictor) Reset() { p.state = 0 }
