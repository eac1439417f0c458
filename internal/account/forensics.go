package account

import (
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/predictor"
)

// EventKind classifies one audited mis-speculation repair.
type EventKind uint8

const (
	// EventFlush: the violation was repaired by a pipeline flush.
	EventFlush EventKind = iota
	// EventWave: the violation was repaired in place by a DSRE
	// re-execution wave.
	EventWave
	// EventVP: a mispredicted load value was repaired by a correction wave.
	EventVP
)

func (k EventKind) String() string {
	switch k {
	case EventFlush:
		return "flush"
	case EventWave:
		return "wave"
	case EventVP:
		return "vp"
	}
	return "?"
}

// dynLoad identifies one dynamic load instance (block sequence number +
// load/store ID within the block), so repeated repairs of the same load can
// be detected.
type dynLoad struct {
	seq  int64
	lsid int
}

// event is one audited repair.  cost is the number of executions the repair
// discarded (flush) or would have discarded under flush recovery
// (squash-equivalent, for waves).
type event struct {
	kind       EventKind
	loadPC     predictor.PC
	storePC    predictor.PC
	tag        core.Tag
	depth      int32
	cost       int64
	superseded bool
}

// Forensics is the always-on violation audit log: one event per repaired
// violation (or value-prediction correction), plus the wave-depth chain
// (a wave triggered by a store that itself ran under wave T has depth
// depth(T)+1) and re-violation tracking (a later repair of the same dynamic
// load marks the earlier event superseded — its re-executions were wasted).
type Forensics struct {
	events []event
	last   map[dynLoad]int32
	// depth is indexed by wave tag (tags come densely from
	// core.TagSource.Next); a tag never recorded reads as depth zero.
	depth []int32
}

func NewForensics() *Forensics {
	return &Forensics{last: make(map[dynLoad]int32)}
}

// Record logs one repair.  seq/lsid name the dynamic load, loadPC/storePC
// the static violation pair (storePC is zero for value-prediction events),
// tag the repair wave, parent the conflicting store's wave tag (zero if the
// store ran un-speculatively), and cost the discarded or squash-equivalent
// execution count.
func (f *Forensics) Record(kind EventKind, seq int64, lsid int, loadPC, storePC predictor.PC, tag, parent core.Tag, cost int64) {
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
	dl := dynLoad{seq: seq, lsid: lsid}
	if prev, ok := f.last[dl]; ok {
		f.events[prev].superseded = true
	}
	f.last[dl] = int32(len(f.events))
	f.events = append(f.events, event{
		kind: kind, loadPC: loadPC, storePC: storePC,
		tag: tag, depth: d, cost: cost,
	})
}

// Events returns the number of audited repairs.
func (f *Forensics) Events() int { return len(f.events) }

// StoreCount is one conflicting-store entry of a load profile.
type StoreCount struct {
	StorePC string `json:"store_pc"`
	Count   int64  `json:"count"`
}

// pcCount tallies one conflicting store PC while Summarize aggregates;
// PCs compare as values and are formatted once, after the tally.
type pcCount struct {
	pc    predictor.PC
	count int64
}

// LoadProfile aggregates the audit log for one static load PC, hottest
// first in Summary.Loads.
type LoadProfile struct {
	LoadPC     string       `json:"load_pc"`
	Events     int64        `json:"events"`
	Flushes    int64        `json:"flushes"`
	Waves      int64        `json:"waves"`
	VPRepairs  int64        `json:"vp_repairs"`
	Reexecs    int64        `json:"reexecs"`
	SquashCost int64        `json:"squash_cost"`
	Wasted     int64        `json:"wasted"`
	MaxDepth   int64        `json:"max_depth"`
	TopStores  []StoreCount `json:"top_stores,omitempty"`
}

// Summary is the aggregated audit log, embedded in sim.Stats (and thus in
// dsre-report/v1).  The counters tie exactly to the Stats totals:
// FlushEvents+WaveEvents == LSQ.Violations, VPEvents == VPCorrections, and
// WaveReexecs+UnattributedReexecs == Reexecs.
type Summary struct {
	Events              int64         `json:"events"`
	FlushEvents         int64         `json:"flush_events"`
	WaveEvents          int64         `json:"wave_events"`
	VPEvents            int64         `json:"vp_events"`
	WaveReexecs         int64         `json:"wave_reexecs"`
	UnattributedReexecs int64         `json:"unattributed_reexecs"`
	WastedReexecs       int64         `json:"wasted_reexecs"`
	SquashCost          int64         `json:"squash_cost"`
	MaxDepth            int64         `json:"max_depth"`
	Loads               []LoadProfile `json:"loads,omitempty"`
}

// Summarize folds the audit log into per-PC profiles.  waveSize reports the
// re-executions attributed to a wave tag (core.WaveStats.WaveSize);
// totalReexecs is the machine's total re-execution counter, so the summary
// can expose the re-executions no audited wave accounts for.  top caps the
// Loads list and each TopStores list (<= 0 means unlimited).
func (f *Forensics) Summarize(waveSize func(core.Tag) int64, totalReexecs int64, top int) Summary {
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
