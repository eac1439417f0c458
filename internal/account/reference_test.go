package account

import (
	"math/bits"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/predictor"
	"repro/internal/stats"
)

// This file keeps two retired structures as test-only references:
//
//   - the log-based Forensics that the folded implementation replaced: it
//     stores every event plus a never-pruned (seq, LSID) -> event map, and
//     Summarize walks the log;
//   - the wave accounting that the paged per-wave table replaced
//     (refWaveStats): a tag-indexed slice of re-execution counts grown by
//     doubling, a present bitmap, and a sorted copy for the histogram.
//
// The differential in forensics_test.go drives both sides with the same
// Record and Reexecuted streams and requires identical counts, per-tag
// sizes, histograms and summaries.

// refDynLoad identifies one dynamic load instance (block sequence number +
// load/store ID within the block), so repeated repairs of the same load can
// be detected.
type refDynLoad struct {
	seq  int64
	lsid int
}

// refEvent is one audited repair.  cost is the number of executions the repair
// discarded (flush) or would have discarded under flush recovery
// (squash-equivalent, for waves).
type refEvent struct {
	kind       EventKind
	loadPC     predictor.PC
	storePC    predictor.PC
	tag        core.Tag
	depth      int32
	cost       int64
	superseded bool
}

// refForensics is the log-based audit Forensics replaced: one event per repaired
// violation (or value-prediction correction), plus the wave-depth chain
// (a wave triggered by a store that itself ran under wave T has depth
// depth(T)+1) and re-violation tracking (a later repair of the same dynamic
// load marks the earlier event superseded — its re-executions were wasted).
type refForensics struct {
	events []refEvent
	last   map[refDynLoad]int32
	// depth is indexed by wave tag (tags come densely from
	// core.TagSource.Next); a tag never recorded reads as depth zero.
	depth []int32
}

func newRefForensics() *refForensics {
	return &refForensics{last: make(map[refDynLoad]int32)}
}

// Record logs one repair.  seq/lsid name the dynamic load, loadPC/storePC
// the static violation pair (storePC is zero for value-prediction events),
// tag the repair wave, parent the conflicting store's wave tag (zero if the
// store ran un-speculatively), and cost the discarded or squash-equivalent
// execution count.
func (f *refForensics) Record(kind EventKind, seq int64, lsid int, loadPC, storePC predictor.PC, tag, parent core.Tag, cost int64) {
	d := int32(1)
	if int(parent) < len(f.depth) {
		d += f.depth[parent]
	}
	if tag != 0 {
		if i := int(tag); i >= len(f.depth) {
			f.depth = slices.Grow(f.depth, i+1-len(f.depth))[:i+1]
		}
		f.depth[tag] = d
	}
	dl := refDynLoad{seq: seq, lsid: lsid}
	if prev, ok := f.last[dl]; ok {
		f.events[prev].superseded = true
	}
	f.last[dl] = int32(len(f.events))
	f.events = append(f.events, refEvent{
		kind: kind, loadPC: loadPC, storePC: storePC,
		tag: tag, depth: d, cost: cost,
	})
}

// Summarize folds the audit log into per-PC profiles.  waveSize reports the
// re-executions attributed to a wave tag (refWaveStats.WaveSize);
// totalReexecs is the machine's total re-execution counter, so the summary
// can expose the re-executions no audited wave accounts for.  top caps the
// Loads list and each TopStores list (<= 0 means unlimited).
func (f *refForensics) Summarize(waveSize func(core.Tag) int64, totalReexecs int64, top int) Summary {
	s := Summary{Events: int64(len(f.events))}
	// Aggregate in first-seen order: the event log is a slice, so the
	// profile order is deterministic without sorting keys.
	idx := make(map[predictor.PC]int)
	var profiles []*LoadProfile
	var stores [][]pcCount // parallel to profiles
	for i := range f.events {
		ev := &f.events[i]
		pi, ok := idx[ev.loadPC]
		if !ok {
			pi = len(profiles)
			idx[ev.loadPC] = pi
			profiles = append(profiles, &LoadProfile{LoadPC: ev.loadPC.String()})
			stores = append(stores, nil)
		}
		p := profiles[pi]
		p.Events++
		p.SquashCost += ev.cost
		s.SquashCost += ev.cost
		if int64(ev.depth) > p.MaxDepth {
			p.MaxDepth = int64(ev.depth)
		}
		if int64(ev.depth) > s.MaxDepth {
			s.MaxDepth = int64(ev.depth)
		}
		var re int64
		switch ev.kind {
		case EventFlush:
			s.FlushEvents++
			p.Flushes++
		case EventWave:
			s.WaveEvents++
			p.Waves++
			re = waveSize(ev.tag)
		case EventVP:
			s.VPEvents++
			p.VPRepairs++
			re = waveSize(ev.tag)
		}
		s.WaveReexecs += re
		p.Reexecs += re
		if ev.superseded {
			s.WastedReexecs += re
			p.Wasted += re
		}
		if ev.storePC != 0 {
			sc := stores[pi]
			found := false
			for j := range sc {
				if sc[j].pc == ev.storePC {
					sc[j].count++
					found = true
					break
				}
			}
			if !found {
				sc = append(sc, pcCount{pc: ev.storePC, count: 1})
			}
			stores[pi] = sc
		}
	}
	s.UnattributedReexecs = totalReexecs - s.WaveReexecs
	// Hottest loads first; ties keep first-seen (dynamic) order.
	ordered := make([]LoadProfile, len(profiles))
	for i, p := range profiles {
		sc := stores[i]
		sort.SliceStable(sc, func(a, b int) bool { return sc[a].count > sc[b].count })
		if top > 0 && len(sc) > top {
			sc = sc[:top]
		}
		if len(sc) > 0 {
			p.TopStores = make([]StoreCount, len(sc))
			for j, c := range sc {
				p.TopStores[j] = StoreCount{StorePC: c.pc.String(), Count: c.count}
			}
		}
		ordered[i] = *p
	}
	sort.SliceStable(ordered, func(a, b int) bool { return ordered[a].Events > ordered[b].Events })
	if top > 0 && len(ordered) > top {
		ordered = ordered[:top]
	}
	if len(ordered) > 0 {
		s.Loads = ordered
	}
	return s
}

// refWaveStats attributes re-executed instructions to the mis-speculation
// wave that caused them.  Because instruction outputs carry the maximum of
// their input tags, the tag value itself identifies the dominating wave
// origin: every re-execution triggered (directly or transitively) by
// violation wave T carries tag T until a newer wave overtakes it.
type refWaveStats struct {
	// perWave counts re-executed instructions by wave tag, indexed by tag:
	// tags come densely from TagSource.Next, so a slice replaces a map.
	// present marks the tags a wave started (one bit per tag), so a wave
	// with zero re-executions still counts as a wave and a tag no wave
	// started does not.
	perWave []int64
	present []uint64
	waves   int // distinct tags present
	// Reexecs is the total number of instruction re-executions (executions
	// beyond the first for a given instruction instance).
	Reexecs int64
	// Waves is the number of recovery waves injected (violations repaired).
	Waves int64
}

// touch returns tag's counter slot, growing the tables to hold it.
func (w *refWaveStats) touch(tag core.Tag) *int64 {
	i := int(tag)
	if i >= len(w.perWave) {
		w.perWave = slices.Grow(w.perWave, i+1-len(w.perWave))[:i+1]
		w.present = slices.Grow(w.present, i/64+1-len(w.present))[:i/64+1]
	}
	return &w.perWave[i]
}

// WaveStarted records the injection of a recovery wave with the given tag.
// Registering the origin (even if nothing downstream re-fires) makes
// zero-length waves visible in the size histogram.
func (w *refWaveStats) WaveStarted(tag core.Tag) {
	w.Waves++
	w.touch(tag)
	i := int(tag)
	if bit := uint64(1) << (i & 63); w.present[i/64]&bit == 0 {
		w.present[i/64] |= bit
		w.waves++
	}
}

// Reexecuted records one instruction re-execution attributed to wave tag;
// a tag no wave started holds re-executions but is no wave.
func (w *refWaveStats) Reexecuted(tag core.Tag) {
	w.Reexecs++
	*w.touch(tag)++
}

// WaveSize returns the number of re-executions attributed to wave tag
// (zero for an unknown tag), for per-wave forensics.
func (w *refWaveStats) WaveSize(tag core.Tag) int64 {
	if int(tag) < len(w.perWave) {
		return w.perWave[tag]
	}
	return 0
}

// SizeHist returns the histogram of wave sizes (re-executed instructions
// per injected wave).
func (w *refWaveStats) SizeHist() *stats.Hist {
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
