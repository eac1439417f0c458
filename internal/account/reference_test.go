package account

import (
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/predictor"
)

// This file keeps the log-based Forensics that the folded implementation
// replaced, as a test-only reference: it stores every event plus a
// never-pruned (seq, LSID) -> event map, and Summarize walks the log.  The
// differential in forensics_test.go drives both with the same Record
// streams and requires identical summaries.

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
// re-executions attributed to a wave tag (core.WaveStats.WaveSize);
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
