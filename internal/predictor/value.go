package predictor

// StrideValue is a stride-based load-value predictor: per static load it
// tracks the last value and the last observed stride, predicting
// last+stride once the stride has repeated (2-bit confidence).  Classic
// last-value behaviour falls out when the stride locks at zero.
//
// Value prediction is the "other application" the DSRE paper positions its
// protocol for: predicting a load's value hides the entire load-to-use
// latency, and mis-predictions are repaired by the same selective
// re-execution waves as memory-ordering violations.
type StrideValue struct {
	table map[PC]*svEntry

	// Stats.
	Lookups   int64
	Predicted int64 // confident predictions issued
	Trained   int64
}

type svEntry struct {
	last   int64
	stride int64
	conf   int8
	primed bool
}

// confidence thresholds: predict at >= predictAt, saturate at max.
const (
	svPredictAt = 2
	svConfMax   = 3
)

// NewStrideValue returns an empty predictor.
func NewStrideValue() *StrideValue {
	return &StrideValue{table: make(map[PC]*svEntry)}
}

// Predict returns the predicted value for a load, and whether the predictor
// is confident enough to speculate.
func (p *StrideValue) Predict(pc PC) (int64, bool) {
	p.Lookups++
	e := p.table[pc]
	if e == nil || !e.primed || e.conf < svPredictAt {
		return 0, false
	}
	p.Predicted++
	return e.last + e.stride, true
}

// Train records a load's final (architecturally certified) value.
func (p *StrideValue) Train(pc PC, v int64) {
	p.Trained++
	e := p.table[pc]
	if e == nil {
		e = &svEntry{}
		p.table[pc] = e
	}
	if !e.primed {
		e.last, e.primed = v, true
		return
	}
	s := v - e.last
	if s == e.stride {
		if e.conf < svConfMax {
			e.conf++
		}
	} else {
		e.stride = s
		if e.conf > 0 {
			e.conf--
		} else {
			e.conf = 0
		}
	}
	e.last = v
}
