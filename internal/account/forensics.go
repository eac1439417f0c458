package account

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/isa"
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

// lastSlot is one frame's supersede state: the block sequence number it
// holds and, per load/store ID, the tag of the latest repair recorded for
// that dynamic load (zero when none).
type lastSlot struct {
	seq  int64
	tags [isa.MaxMemOps]core.Tag
}

// Forensics is the always-on violation audit.  Each repaired violation (or
// value-prediction correction) is folded, as it is recorded, into running
// totals and a per-static-load-PC profile; no event is kept.  Two pieces of
// state outlive a Record call:
//
//   - waves, the paged per-wave table (waveTable): each tag's re-execution
//     count (Reexecuted), whether it is a wave, the wave-depth chain (a
//     wave triggered by a store that itself ran under wave T has depth
//     depth(T)+1) and, for wave and VP repairs, the owning profile plus a
//     superseded bit, so Summarize can attribute each wave's final size;
//   - ring, one lastSlot per frame: re-violation tracking, where a later
//     repair of the same dynamic load (seq, LSID) marks the earlier one
//     superseded — its re-executions were wasted.
//
// The ring is indexed by seq modulo the frame count.  A squash rewinds the
// next sequence number, so a refetched block reuses its seq and slot, and
// a repair of the refetched load supersedes the squashed instance's.  A
// slot is only reset by seq+frames, which cannot be mapped until seq has
// committed and will never be repaired again; Record panics if a stream
// breaks that rule.  Wave and VP repairs must carry fresh non-zero tags
// (core.TagSource.Next), as the machine's do.
type Forensics struct {
	tot      Summary
	profiles []LoadProfile // first-seen order; Reexecs/Wasted filled by Summarize
	stores   [][]pcCount   // parallel to profiles, first-seen order
	index    map[predictor.PC]int
	waves    waveTable
	ring     []lastSlot
}

// NewForensics returns an empty audit for a machine of frames in-flight
// blocks.
func NewForensics(frames int) *Forensics {
	return &Forensics{
		index: make(map[predictor.PC]int),
		ring:  make([]lastSlot, max(frames, 1)),
	}
}

// Record folds one repair into the audit.  seq/lsid name the dynamic load,
// loadPC/storePC the static violation pair (storePC is zero for
// value-prediction events), tag the repair wave, parent the conflicting
// store's wave tag (zero if the store ran un-speculatively), and cost the
// discarded or squash-equivalent execution count.  A wave or VP repair
// also starts wave tag: it counts in Waves and in the size histogram.
func (f *Forensics) Record(kind EventKind, seq int64, lsid int, loadPC, storePC predictor.PC, tag, parent core.Tag, cost int64) {
	d := int32(1)
	if r := f.waves.peek(parent); r != nil {
		d += r.depth
	}
	pi, ok := f.index[loadPC]
	if !ok {
		pi = len(f.profiles)
		f.index[loadPC] = pi
		f.profiles = append(f.profiles, LoadProfile{LoadPC: loadPC.String()})
		f.stores = append(f.stores, nil)
	}
	p, s := &f.profiles[pi], &f.tot
	p.Events++
	s.Events++
	p.SquashCost += cost
	s.SquashCost += cost
	p.MaxDepth = max(p.MaxDepth, int64(d))
	s.MaxDepth = max(s.MaxDepth, int64(d))
	switch kind {
	case EventFlush:
		p.Flushes++
		s.FlushEvents++
	case EventWave:
		p.Waves++
		s.WaveEvents++
	case EventVP:
		p.VPRepairs++
		s.VPEvents++
	}
	if storePC != 0 {
		f.stores[pi] = tally(f.stores[pi], storePC)
	}
	if kind != EventFlush {
		f.waves.started++
	}
	if tag != 0 {
		r := f.waves.at(tag)
		r.depth = d
		if kind != EventFlush {
			r.ev = uint32(pi+1) << recProfileShift
		}
	}
	slot := &f.ring[int(seq%int64(len(f.ring)))]
	if slot.seq != seq {
		if slot.seq > seq {
			panic(fmt.Sprintf("account: forensics recorded seq %d after seq %d reused its frame", seq, slot.seq))
		}
		*slot = lastSlot{seq: seq}
	}
	if prev := slot.tags[lsid]; prev != 0 {
		if r := f.waves.peek(prev); r.profile() != 0 {
			r.ev |= recSuperseded
		}
	}
	slot.tags[lsid] = tag
}

// tally counts one more conflict with store pc.
func tally(sc []pcCount, pc predictor.PC) []pcCount {
	for j := range sc {
		if sc[j].pc == pc {
			sc[j].count++
			return sc
		}
	}
	return append(sc, pcCount{pc: pc, count: 1})
}

// Events returns the number of audited repairs.
func (f *Forensics) Events() int { return int(f.tot.Events) }

// StoreCount is one conflicting-store entry of a load profile.
type StoreCount struct {
	StorePC string `json:"store_pc"`
	Count   int64  `json:"count"`
}

// pcCount tallies one conflicting store PC of a profile; PCs compare as
// values and are formatted once, in Summarize.
type pcCount struct {
	pc    predictor.PC
	count int64
}

// LoadProfile aggregates the audit for one static load PC, hottest
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

// Summary is the aggregated audit, embedded in sim.Stats (and thus in
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

// Summarize completes the folded audit: each audited wave or VP tag's
// final size is added to its profile (and to Wasted when superseded), then
// the profiles are ranked.  The re-executions no audited wave accounts for
// are reported as UnattributedReexecs.  top caps the Loads list and each
// TopStores list (<= 0 means unlimited).  Summarize reads the per-wave
// table in place and does not modify f.
func (f *Forensics) Summarize(top int) Summary {
	s := f.tot
	ordered := slices.Clone(f.profiles)
	f.waves.each(func(r *waveRec) {
		pi := r.profile()
		if pi == 0 {
			return
		}
		p, re := &ordered[pi-1], int64(r.reexecs)
		s.WaveReexecs += re
		p.Reexecs += re
		if r.ev&recSuperseded != 0 {
			s.WastedReexecs += re
			p.Wasted += re
		}
	})
	s.UnattributedReexecs = f.waves.reexecs - s.WaveReexecs
	for i := range ordered {
		sc := slices.Clone(f.stores[i])
		sort.SliceStable(sc, func(a, b int) bool { return sc[a].count > sc[b].count })
		if top > 0 && len(sc) > top {
			sc = sc[:top]
		}
		if len(sc) > 0 {
			ts := make([]StoreCount, len(sc))
			for j, c := range sc {
				ts[j] = StoreCount{StorePC: c.pc.String(), Count: c.count}
			}
			ordered[i].TopStores = ts
		}
	}
	// Hottest loads first; ties keep first-seen (dynamic) order.
	sort.SliceStable(ordered, func(a, b int) bool { return ordered[a].Events > ordered[b].Events })
	if top > 0 && len(ordered) > top {
		ordered = ordered[:top]
	}
	if len(ordered) > 0 {
		s.Loads = ordered
	}
	return s
}
