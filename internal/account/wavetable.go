package account

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/stats"
)

// waveRec is one wave tag's record: the re-executions attributed to the
// tag, its wave depth (zero until a repair carries the tag), and ev, which
// packs the owning profile of a wave or VP repair with a flag:
// (profile index+1)<<recProfileShift | recSuperseded.  A tag is a wave when
// its profile is set.  Twelve bytes a tag.  Measured wave sizes stay below
// 30 re-executions, so 32 bits hold them with room to spare; Reexecuted
// panics rather than wrap.
type waveRec struct {
	reexecs uint32
	depth   int32
	ev      uint32
}

const (
	// recSuperseded: a later repair of the same dynamic load superseded
	// this tag's repair, so its re-executions were wasted.
	recSuperseded   = 1
	recProfileShift = 1
)

// profile returns the owning profile index plus one, or zero when no wave
// or VP repair was recorded with the tag.
func (r *waveRec) profile() uint32 { return r.ev >> recProfileShift }

// pageLen is the number of tags a page covers.  A page is 6 KiB: a run
// with a handful of waves allocates one, and the directory of page
// pointers stays smaller than a page up to about 390,000 tags, so no
// allocation the table makes grows with the run.
const pageLen = 512

type wavePage [pageLen]waveRec

// waveTable is the per-wave record table, indexed by tag (tags come
// densely from core.TagSource.Next).  It is stored as fixed-size pages
// that are allocated on first touch and never copied; only the directory
// of page pointers grows.
type waveTable struct {
	pages   []*wavePage
	started int64 // wave and VP repairs recorded
	reexecs int64 // re-executions recorded, on any tag
}

// at returns tag's record, allocating its page on first touch.
func (t *waveTable) at(tag core.Tag) *waveRec {
	i := int(tag / pageLen)
	for i >= len(t.pages) {
		// One entry at a time: append(pages, make(...)...) allocates a
		// temporary slice when the build is instrumented (-race).
		t.pages = append(t.pages, nil)
	}
	p := t.pages[i]
	if p == nil {
		p = new(wavePage)
		t.pages[i] = p
	}
	return &p[tag%pageLen]
}

// peek returns tag's record, or nil when its page was never touched.
func (t *waveTable) peek(tag core.Tag) *waveRec {
	if i := tag / pageLen; i < core.Tag(len(t.pages)) && t.pages[i] != nil {
		return &t.pages[i][tag%pageLen]
	}
	return nil
}

// each calls fn on every record of every allocated page, in tag order.
func (t *waveTable) each(fn func(r *waveRec)) {
	for _, p := range t.pages {
		if p == nil {
			continue
		}
		for i := range p {
			fn(&p[i])
		}
	}
}

// Reexecuted records one instruction re-execution attributed to wave tag.
// A tag no wave or VP repair started (tag zero, a flush's tag) counts its
// re-executions but is no wave.
func (f *Forensics) Reexecuted(tag core.Tag) {
	f.waves.reexecs++
	r := f.waves.at(tag)
	if r.reexecs == math.MaxUint32 {
		panic(fmt.Sprintf("account: wave %d re-executed 2^32 times", tag))
	}
	r.reexecs++
}

// Waves returns the number of wave and VP repairs recorded.
func (f *Forensics) Waves() int64 { return f.waves.started }

// Reexecs returns the number of re-executions recorded.
func (f *Forensics) Reexecs() int64 { return f.waves.reexecs }

// SizeHist returns the histogram of wave sizes: one observation per tag a
// wave or VP repair started, its re-execution count, so its N is Waves.
// It reads the table in place.
func (f *Forensics) SizeHist() stats.Hist {
	var h stats.Hist
	f.waves.each(func(r *waveRec) {
		if r.profile() != 0 {
			h.Add(int64(r.reexecs))
		}
	})
	return h
}
