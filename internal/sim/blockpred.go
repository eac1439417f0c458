package sim

import (
	"fmt"

	"repro/internal/isa"
)

// BlockPredKind selects the next-block predictor, the EDGE analogue of a
// branch predictor: blocks have a single exit whose target must be guessed
// to keep fetch ahead of execution.
type BlockPredKind int

// Next-block predictor kinds.
const (
	// PredLastTarget predicts the most recent committed successor of the
	// block (untrained blocks predict a self-loop, the dominant hyperblock
	// pattern) — a minimal BTB.
	PredLastTarget BlockPredKind = iota
	// PredTwoLevel hashes the block ID with a global history of recent
	// committed successors, capturing alternating and periodic exit
	// patterns (inner/outer loop boundaries) — modelled on the TRIPS exit
	// predictor.
	PredTwoLevel
	// PredPerfect follows the golden block trace (requires a trace).
	PredPerfect
)

// String names the predictor kind.
func (k BlockPredKind) String() string {
	switch k {
	case PredLastTarget:
		return "last-target"
	case PredTwoLevel:
		return "two-level"
	case PredPerfect:
		return "perfect"
	}
	return "unknown"
}

// nextBlockPred is the predictor interface used by the fetch engine.
type nextBlockPred interface {
	predict(blockID int) int
	train(blockID, actual int)
}

// lastTargetPred is the minimal BTB.
type lastTargetPred struct {
	m map[int]int
}

func newLastTargetPred() *lastTargetPred { return &lastTargetPred{m: make(map[int]int)} }

func (p *lastTargetPred) predict(blockID int) int {
	if t, ok := p.m[blockID]; ok {
		return t
	}
	return blockID // static self-loop heuristic
}

func (p *lastTargetPred) train(blockID, actual int) { p.m[blockID] = actual }

// twoLevelPred folds a global history of committed successors into the
// table index.  History is committed (not speculative), so deep windows
// predict with slightly stale history — a fidelity-neutral simplification.
type twoLevelPred struct {
	hist     uint32
	table    []int32 // successor block ID + 1; 0 = untrained
	mask     uint32
	fallback *lastTargetPred
}

func newTwoLevelPred(bits int) *twoLevelPred {
	size := 1 << bits
	return &twoLevelPred{
		table:    make([]int32, size),
		mask:     uint32(size - 1),
		fallback: newLastTargetPred(),
	}
}

func (p *twoLevelPred) index(blockID int) uint32 {
	h := uint32(blockID)*2654435761 ^ p.hist*40503
	return h & p.mask
}

func (p *twoLevelPred) predict(blockID int) int {
	if t := p.table[p.index(blockID)]; t > 0 {
		return int(t - 1)
	}
	return p.fallback.predict(blockID)
}

func (p *twoLevelPred) train(blockID, actual int) {
	if actual >= 0 {
		p.table[p.index(blockID)] = int32(actual + 1)
	}
	p.fallback.train(blockID, actual)
	p.hist = p.hist<<3 ^ uint32(actual+1)&7
}

// perfectPred replays the golden committed block trace by sequence number;
// the fetch engine passes the dynamic sequence via predictSeq.
type perfectPred struct {
	trace []int
	// seq is set by the fetch engine before each query.
	seq int64
}

func (p *perfectPred) predict(blockID int) int {
	if p.seq < int64(len(p.trace)) {
		return p.trace[p.seq]
	}
	return isa.HaltTarget
}

func (p *perfectPred) train(int, int) {}

// newBlockPred builds the configured predictor.
func newBlockPred(kind BlockPredKind, bits int, trace []int) (nextBlockPred, error) {
	switch kind {
	case PredLastTarget:
		return newLastTargetPred(), nil
	case PredTwoLevel:
		if bits <= 0 || bits > 24 {
			return nil, fmt.Errorf("sim: two-level predictor with %d index bits", bits)
		}
		return newTwoLevelPred(bits), nil
	case PredPerfect:
		if trace == nil {
			return nil, fmt.Errorf("sim: perfect block prediction requires a block trace")
		}
		return &perfectPred{trace: trace}, nil
	}
	return nil, fmt.Errorf("sim: unknown block predictor %d", kind)
}
