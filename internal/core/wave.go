package core

import (
	"math/bits"
	"slices"

	"repro/internal/stats"
)

// WaveStats attributes re-executed instructions to the mis-speculation wave
// that caused them.  Because instruction outputs carry the maximum of their
// input tags, the tag value itself identifies the dominating wave origin:
// every re-execution triggered (directly or transitively) by violation wave
// T carries tag T until a newer wave overtakes it.
type WaveStats struct {
	// perWave counts re-executed instructions by wave tag, indexed by tag:
	// tags come densely from TagSource.Next, so a slice replaces a map.
	// present marks the tags that have been seen (one bit per tag), so a
	// wave with zero re-executions still counts as a wave.
	perWave []int64
	present []uint64
	waves   int // distinct tags present
	// Reexecs is the total number of instruction re-executions (executions
	// beyond the first for a given instruction instance).
	Reexecs int64
	// Waves is the number of recovery waves injected (violations repaired).
	Waves int64
}

// NewWaveStats returns empty accounting.
func NewWaveStats() *WaveStats { return &WaveStats{} }

// touch returns tag's counter slot, registering the tag on first sight.
func (w *WaveStats) touch(tag Tag) *int64 {
	i := int(tag)
	if i >= len(w.perWave) {
		w.perWave = slices.Grow(w.perWave, i+1-len(w.perWave))[:i+1]
		w.present = slices.Grow(w.present, i/64+1-len(w.present))[:i/64+1]
	}
	if bit := uint64(1) << (i & 63); w.present[i/64]&bit == 0 {
		w.present[i/64] |= bit
		w.waves++
	}
	return &w.perWave[i]
}

// WaveStarted records the injection of a recovery wave with the given tag.
// Registering the origin (even if nothing downstream re-fires) makes
// zero-length waves visible in the size histogram.
func (w *WaveStats) WaveStarted(tag Tag) {
	w.Waves++
	w.touch(tag)
}

// Reexecuted records one instruction re-execution attributed to wave tag.
func (w *WaveStats) Reexecuted(tag Tag) {
	w.Reexecs++
	*w.touch(tag)++
}

// WaveSize returns the number of re-executions attributed to wave tag
// (zero for an unknown tag), for per-wave forensics.
func (w *WaveStats) WaveSize(tag Tag) int64 {
	if int(tag) < len(w.perWave) {
		return w.perWave[tag]
	}
	return 0
}

// SizeHist returns the histogram of wave sizes (re-executed instructions
// per injected wave).
func (w *WaveStats) SizeHist() *stats.Hist {
	sizes := make([]int64, 0, w.waves)
	for i, word := range w.present {
		for ; word != 0; word &= word - 1 {
			sizes = append(sizes, w.perWave[i*64+bits.TrailingZeros64(word)])
		}
	}
	slices.Sort(sizes)
	h := &stats.Hist{}
	for _, n := range sizes {
		h.Add(n)
	}
	return h
}

// MeanSize returns the average wave size.
func (w *WaveStats) MeanSize() float64 {
	if w.waves == 0 {
		return 0
	}
	return float64(w.Reexecs) / float64(w.waves)
}
