package account

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/predictor"
)

// recordArgs is one Forensics.Record call.
type recordArgs struct {
	kind            EventKind
	seq             int64
	lsid            int
	loadPC, storePC predictor.PC
	tag, parent     core.Tag
	cost            int64
}

// streamOp is one call on the audit: a Record, or, when reexec is set, a
// Reexecuted of tag.
type streamOp struct {
	recordArgs
	reexec bool
}

// streamCoverage counts the stream shapes the differential must exercise.
type streamCoverage struct {
	// squashReuse: a repair of a refetched block's load (same seq and
	// LSID, different PC) after a repair of the squashed instance.
	squashReuse int
	// frameReuse: a repair at seq after one at seq-frames, whose slot it
	// takes over.
	frameReuse int
	// reexecZero: a re-execution on tag zero.
	reexecZero int
	// reexecUnstarted: a re-execution on a non-zero tag no wave or VP
	// repair has started.
	reexecUnstarted int
	// flushDepth: a flush repair with a non-zero tag, which carries only a
	// depth in the table.
	flushDepth int
	// pageCross: a repair whose tag lies in a later page than the previous
	// repair's; pageSkip: one that leaves at least one page untouched.
	pageCross, pageSkip int
	// wasted: re-executions on superseded repairs, summed over the final
	// summaries.
	wasted int64
}

// genStream produces n audit calls as a machine with the given frame count
// would issue them: repairs land only on live blocks of a contiguous
// window of at most frames seqs, commits retire the oldest block, squashes
// rewind the next seq so refetched blocks reuse seqs (with new block IDs,
// hence new PCs), and every repair allocates a fresh tag (flushes now and
// then carry tag zero, as hand-written streams do).  Tags now and then
// jump to just around a page boundary, sometimes past a whole page.
// Re-executions land on recent repairs' tags, on tag zero, on tags no wave
// started (flush tags and not-yet-allocated ones) and anywhere below the
// newest tag.
func genStream(rng *rand.Rand, frames, n int, cov *streamCoverage) []streamOp {
	var (
		oldest, next int64
		nextTag      core.Tag
		blockOf      = map[int64]int{}
		recorded     = map[int64]bool{}
		lastPC       = map[[2]int64]predictor.PC{}
		started      = map[core.Tag]bool{}
		out          []streamOp
	)
	for len(out) < n {
		if rng.Intn(100) < 40 {
			var tag core.Tag
			switch r := rng.Intn(100); {
			case r < 35:
				tag = nextTag - core.Tag(rng.Intn(int(min(nextTag, 4))+1))
			case r < 50:
				tag = 0
			case r < 65:
				tag = nextTag + core.Tag(1+rng.Intn(3))
			default:
				tag = core.Tag(rng.Int63n(int64(nextTag) + 1))
			}
			if tag == 0 {
				cov.reexecZero++
			} else if !started[tag] {
				cov.reexecUnstarted++
			}
			out = append(out, streamOp{recordArgs: recordArgs{tag: tag}, reexec: true})
			continue
		}
		live := int(next - oldest)
		switch r := rng.Intn(100); {
		case live < frames && r < 35:
			blockOf[next] = rng.Intn(6)
			next++
		case live > 0 && r < 50:
			oldest++
		case live > 0 && r < 55:
			next = oldest + int64(rng.Intn(live))
		case live > 0:
			seq := oldest + int64(rng.Intn(live))
			lsid := rng.Intn(4)
			a := recordArgs{
				kind:    EventKind(rng.Intn(3)),
				seq:     seq,
				lsid:    lsid,
				loadPC:  predictor.MakePC(blockOf[seq], lsid),
				storePC: predictor.MakePC(rng.Intn(4), rng.Intn(4)),
				cost:    int64(rng.Intn(50)),
			}
			prevTag := nextTag
			if rng.Intn(16) == 0 {
				edge := (nextTag/pageLen + 1 + core.Tag(rng.Intn(2))) * pageLen
				nextTag = max(edge-2+core.Tag(rng.Intn(4)), nextTag+1)
			} else {
				nextTag += core.Tag(1 + rng.Intn(3))
			}
			if p, q := prevTag/pageLen, nextTag/pageLen; q > p {
				cov.pageCross++
				if q > p+1 {
					cov.pageSkip++
				}
			}
			a.tag = nextTag
			if a.kind == EventFlush && rng.Intn(8) == 0 {
				a.tag = 0
			}
			if a.kind == EventFlush && a.tag != 0 {
				cov.flushDepth++
			}
			if a.kind != EventFlush {
				started[a.tag] = true
			}
			if a.kind == EventVP {
				a.storePC = 0
			}
			if rng.Intn(5) > 1 {
				a.parent = core.Tag(rng.Intn(int(nextTag) + 3))
			}
			key := [2]int64{seq, int64(lsid)}
			if pc, ok := lastPC[key]; ok && pc != a.loadPC {
				cov.squashReuse++
			}
			lastPC[key] = a.loadPC
			if recorded[seq-int64(frames)] && !recorded[seq] {
				cov.frameReuse++
			}
			recorded[seq] = true
			out = append(out, streamOp{recordArgs: a})
		}
	}
	return out
}

// waveSize reads tag's re-execution count from the audit's table (zero
// when its page was never touched).
func waveSize(f *Forensics, tag core.Tag) int64 {
	if r := f.waves.peek(tag); r != nil {
		return int64(r.reexecs)
	}
	return 0
}

// TestWaveStats: re-executions land on their wave's record and count in
// the totals; a wave with no re-executions is still a wave, and a tag no
// wave started is none; tags far apart leave the tags between them out,
// and a tag beyond every touched page reads as size zero.
func TestWaveStats(t *testing.T) {
	load, store := predictor.MakePC(1, 0), predictor.MakePC(2, 0)
	f := NewForensics(8)
	f.Record(EventWave, 1, 0, load, store, 1, 0, 0)
	f.Record(EventWave, 2, 0, load, store, 2, 0, 0)
	f.Reexecuted(1)
	f.Reexecuted(1)
	f.Reexecuted(2)
	if f.Waves() != 2 || f.Reexecs() != 3 {
		t.Errorf("waves=%d reexecs=%d", f.Waves(), f.Reexecs())
	}
	if h := f.SizeHist(); h.N != 2 || h.Max != 2 || h.Sum != 3 {
		t.Errorf("hist = %v", h)
	}
	// A wave that repaired its violation without any downstream re-fires
	// still appears (size zero); a flush's tag does not.
	f2 := NewForensics(8)
	f2.Record(EventFlush, 1, 0, load, store, 8, 0, 0)
	f2.Record(EventVP, 2, 0, load, 0, 9, 0, 0)
	if h2 := f2.SizeHist(); h2.N != 1 || h2.Max != 0 || f2.Waves() != 1 {
		t.Errorf("zero-size wave hist = %v, %d waves", h2, f2.Waves())
	}
	// Re-executions on tag zero or on a flush's tag count, but neither tag
	// is a wave.
	f2.Reexecuted(0)
	f2.Reexecuted(8)
	if h2 := f2.SizeHist(); h2.N != 1 || h2.Sum != 0 || f2.Reexecs() != 2 {
		t.Errorf("hist with unstarted tags = %v, %d reexecs", h2, f2.Reexecs())
	}
	// Tags pages apart: the unseen tags between them are not waves.
	f3 := NewForensics(8)
	f3.Record(EventWave, 1, 0, load, store, 3, 0, 0)
	f3.Record(EventWave, 2, 0, load, store, 3*pageLen+200, 0, 0)
	f3.Reexecuted(3*pageLen + 200)
	f3.Reexecuted(3*pageLen + 200)
	if h3 := f3.SizeHist(); h3.N != 2 || h3.Max != 2 || h3.Sum != 2 {
		t.Errorf("sparse-tag hist = %v", h3)
	}
	for tag, want := range map[core.Tag]int64{100: 0, pageLen + 5: 0, 3*pageLen + 200: 2, 10 * pageLen: 0} {
		if got := waveSize(f3, tag); got != want {
			t.Errorf("size of tag %d = %d, want %d", tag, got, want)
		}
	}
}

// TestForensicsMatchesReference drives the folded Forensics with its paged
// per-wave table, and the log-based reference with the slice-based wave
// accounting, with the same random Record and Reexecuted streams.  Both
// mid-stream (reading must not disturb later folding) and at the end it
// requires identical wave and re-execution counts, every tag's size, the
// size histogram, and summaries under several top caps.
func TestForensicsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var cov streamCoverage
	for stream := 0; stream < 400; stream++ {
		frames := []int{2, 3, 4, 8}[rng.Intn(4)]
		ops := genStream(rng, frames, 1+rng.Intn(500), &cov)
		got, want, wantWaves := NewForensics(frames), newRefForensics(), &refWaveStats{}
		var maxTag core.Tag
		check := func(at int) {
			if got.Waves() != wantWaves.Waves || got.Reexecs() != wantWaves.Reexecs {
				t.Fatalf("stream %d after %d calls: %d waves, %d reexecs; want %d, %d",
					stream, at, got.Waves(), got.Reexecs(), wantWaves.Waves, wantWaves.Reexecs)
			}
			for tag := core.Tag(0); tag <= maxTag+pageLen; tag++ {
				if g, w := waveSize(got, tag), wantWaves.WaveSize(tag); g != w {
					t.Fatalf("stream %d after %d calls: tag %d size %d, want %d", stream, at, tag, g, w)
				}
			}
			if g, w := got.SizeHist(), *wantWaves.SizeHist(); g != w {
				t.Fatalf("stream %d after %d calls: size hist\n got %+v\nwant %+v", stream, at, g, w)
			}
			var w Summary
			for _, top := range []int{0, 1, 2, 3, 16, -1} {
				g := got.Summarize(top)
				w = want.Summarize(wantWaves.WaveSize, wantWaves.Reexecs, top)
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("stream %d (frames %d) after %d calls, top %d:\n got %+v\nwant %+v",
						stream, frames, at, top, g, w)
				}
			}
			if got.Events() != len(want.events) {
				t.Fatalf("stream %d: Events() = %d, want %d", stream, got.Events(), len(want.events))
			}
			if at == len(ops) {
				cov.wasted += w.WastedReexecs
			}
		}
		mid := rng.Intn(len(ops))
		for i, op := range ops {
			if i == mid {
				check(i)
			}
			a := op.recordArgs
			maxTag = max(maxTag, a.tag, a.parent)
			if op.reexec {
				got.Reexecuted(a.tag)
				wantWaves.Reexecuted(a.tag)
				continue
			}
			got.Record(a.kind, a.seq, a.lsid, a.loadPC, a.storePC, a.tag, a.parent, a.cost)
			if a.kind != EventFlush {
				wantWaves.WaveStarted(a.tag)
			}
			want.Record(a.kind, a.seq, a.lsid, a.loadPC, a.storePC, a.tag, a.parent, a.cost)
		}
		check(len(ops))
	}
	t.Logf("coverage: %+v", cov)
	if cov.squashReuse == 0 || cov.frameReuse == 0 || cov.reexecZero == 0 || cov.reexecUnstarted == 0 ||
		cov.flushDepth == 0 || cov.pageCross == 0 || cov.pageSkip == 0 || cov.wasted == 0 {
		t.Fatalf("streams missed a shape: %+v", cov)
	}
}

// TestForensicsRejectsStaleSeq: a repair of a seq whose frame a younger
// seq has since taken over breaks the window contract and must not be
// folded silently into the wrong dynamic load's history.
func TestForensicsRejectsStaleSeq(t *testing.T) {
	f := NewForensics(4)
	f.Record(EventWave, 9, 0, 1, 2, 1, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("seq 5 after seq 9 in a 4-frame ring did not panic")
		}
	}()
	f.Record(EventWave, 5, 0, 1, 2, 2, 0, 0)
}

// waveStream fills buf with wave repairs over a sliding 8-frame window:
// each block seq takes four repairs at random LSIDs of a 32-PC load set,
// with fresh tags whose parents are recent waves.
func waveStream(buf []recordArgs) {
	rng := rand.New(rand.NewSource(7))
	for i := range buf {
		seq := int64(i/4 + rng.Intn(8))
		lsid := rng.Intn(8)
		tag := core.Tag(i + 1)
		var parent core.Tag
		if i > 0 && rng.Intn(2) == 0 {
			parent = tag - core.Tag(1+rng.Intn(min(i, 64)))
		}
		buf[i] = recordArgs{
			kind: EventWave, seq: seq, lsid: lsid,
			loadPC:  predictor.MakePC(rng.Intn(4), lsid),
			storePC: predictor.MakePC(4+rng.Intn(4), rng.Intn(8)),
			tag:     tag, parent: parent, cost: int64(rng.Intn(200)),
		}
	}
}

// recordWave folds one wave repair into f followed by the re-executions a
// DSRE machine attributes to such a repair: two on its own tag and, when
// it has one, one on its parent wave.
func recordWave(f *Forensics, a *recordArgs) {
	f.Record(a.kind, a.seq, a.lsid, a.loadPC, a.storePC, a.tag, a.parent, a.cost)
	f.Reexecuted(a.tag)
	f.Reexecuted(a.tag)
	if a.parent != 0 {
		f.Reexecuted(a.parent)
	}
}

// TestForensicsRetainedBytesPerEvent pins the audit's memory: after 200k
// wave repairs and their re-executions the live heap it holds is the paged
// per-wave table (a 12-byte record a tag, in whole pages) plus a constant,
// at most 16 bytes a wave — not a log, and no slice growth slack.
func TestForensicsRetainedBytesPerEvent(t *testing.T) {
	const n = 200_000
	events := make([]recordArgs, n)
	waveStream(events)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f := NewForensics(8)
	for i := range events {
		recordWave(f, &events[i])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEvent := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	runtime.KeepAlive(f)
	runtime.KeepAlive(events)
	t.Logf("retained %.2f B/wave", perEvent)
	if f.Waves() != n || f.Reexecs() < 2*n {
		t.Fatalf("%d waves, %d reexecs recorded", f.Waves(), f.Reexecs())
	}
	if perEvent > 16 {
		t.Fatalf("Forensics retains %.2f B/wave, budget 16", perEvent)
	}
}

// TestWaveTableAllocations pins how the per-wave table allocates: in
// pages, never more than one page at a time, one page for a small run, and
// nothing per wave when it is read.
func TestWaveTableAllocations(t *testing.T) {
	page := uint64(unsafe.Sizeof(wavePage{}))
	const n = 200_000
	events := make([]recordArgs, n)
	waveStream(events)

	t.Run("no allocation larger than a page", func(t *testing.T) {
		f := NewForensics(8)
		const warm = 1000 // every profile and store tally exists by then
		for i := range events[:warm] {
			recordWave(f, &events[i])
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range events[warm:] {
			recordWave(f, &events[warm+i])
		}
		runtime.ReadMemStats(&after)
		// Objects above 32 KiB have no size class; the rest are counted
		// per class.
		large := after.Mallocs - before.Mallocs
		var classed, pages uint64
		for i, c := range after.BySize {
			m := c.Mallocs - before.BySize[i].Mallocs
			classed += m
			if m > 0 && uint64(c.Size) > page {
				t.Errorf("%d allocations of %d B, larger than a %d B page", m, c.Size, page)
			}
			if uint64(c.Size) == page {
				pages += m
			}
		}
		if large -= classed; large != 0 {
			t.Errorf("%d allocations above 32 KiB", large)
		}
		if want := uint64(n/pageLen - warm/pageLen); pages < want {
			t.Errorf("%d page-sized allocations, want at least %d", pages, want)
		}
		runtime.KeepAlive(f)
	})

	t.Run("a small run allocates one page", func(t *testing.T) {
		// The same ten repairs as waves, with re-executions, and as tagless
		// flushes, which never touch the table: the difference in each size
		// class's allocation count is what the table allocates.  Every run
		// builds its own table, so each of its allocations shows as one
		// per run in its class; the few stray runtime allocations a loop
		// of runs makes (the race detector makes some) round down to none,
		// where in TotalAlloc bytes they read as a larger table.
		const runs = 1000
		run := func(waves bool) (ms runtime.MemStats) {
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				f := NewForensics(8)
				for i := range events[:10] {
					a := events[i]
					if waves {
						recordWave(f, &a)
					} else {
						f.Record(EventFlush, a.seq, a.lsid, a.loadPC, a.storePC, 0, 0, a.cost)
					}
				}
			}
			runtime.ReadMemStats(&ms)
			for i := range ms.BySize {
				ms.BySize[i].Mallocs -= before.BySize[i].Mallocs
			}
			return ms
		}
		w, f := run(true), run(false)
		var pages, other int64 // per run, rounded down
		for i, c := range w.BySize {
			d := (int64(c.Mallocs) - int64(f.BySize[i].Mallocs)) / runs
			if uint64(c.Size) == page {
				pages = d
			} else {
				other += d * int64(c.Size)
			}
		}
		dir := int64(unsafe.Sizeof((*wavePage)(nil)))
		t.Logf("ten waves: the table allocates %d page(s) and %d B besides, per run", pages, other)
		if pages != 1 || other > dir {
			t.Fatalf("ten waves allocate %d pages and %d B besides, want one %d B page and at most its %d B directory", pages, other, page, dir)
		}
	})

	t.Run("reading allocates per profile, not per wave", func(t *testing.T) {
		// Both audits see the same 32 profiles, each with the same four
		// conflicting stores; one holds a hundred times the waves.
		read := func(waves int) (allocs float64, bytes uint64) {
			f := NewForensics(8)
			for i := range events[:waves] {
				a := events[i]
				a.storePC = predictor.MakePC(4+i%4, 0)
				recordWave(f, &a)
			}
			for i, sc := range f.stores {
				if len(f.profiles) != 32 || len(sc) != 4 {
					t.Fatalf("after %d waves: %d profiles, profile %d with %d stores; want 32 with 4 each",
						waves, len(f.profiles), i, len(sc))
				}
			}
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				f.SizeHist()
				f.Summarize(16)
			}
			runtime.ReadMemStats(&after)
			if a := testing.AllocsPerRun(runs, func() { f.SizeHist() }); a != 0 {
				t.Fatalf("SizeHist allocates %v times", a)
			}
			allocs = testing.AllocsPerRun(runs, func() { f.Summarize(16) })
			return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
		}
		smallA, smallB := read(n / 100)
		bigA, bigB := read(n)
		t.Logf("SizeHist+Summarize: %v allocs, %d B at %d waves; %v allocs, %d B at %d waves",
			smallA, smallB, n/100, bigA, bigB, n)
		// MemStats picks up the odd runtime allocation (more of them under
		// the race detector); one allocation or byte a wave would show as
		// 198,000 more.
		if bigA > smallA+8 || bigB > smallB+1024 {
			t.Fatalf("reading %d waves allocates %v times, %d B; %d waves %v times, %d B",
				n, bigA, bigB, n/100, smallA, smallB)
		}
	})
}

// BenchmarkForensicsRecord measures one Record of a wave repair.  Each pass
// over the 64k-event stream is a fresh audit, as one run's is, so B/op is
// the per-tag state's growth amortised over a run.
func BenchmarkForensicsRecord(b *testing.B) {
	events := make([]recordArgs, 1<<16)
	waveStream(events)
	b.ReportAllocs()
	b.ResetTimer()
	var f *Forensics
	for i := 0; i < b.N; i++ {
		a := &events[i&(len(events)-1)]
		if i&(len(events)-1) == 0 {
			f = NewForensics(8)
		}
		f.Record(a.kind, a.seq, a.lsid, a.loadPC, a.storePC, a.tag, a.parent, a.cost)
	}
}

// BenchmarkWaveTable measures one run's worth of the per-wave table: 200k
// wave repairs, each followed by its re-executions, then the size
// histogram and the summary read in place.  B/op is one run's table.
func BenchmarkWaveTable(b *testing.B) {
	const n = 200_000
	events := make([]recordArgs, n)
	waveStream(events)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewForensics(8)
		for j := range events {
			recordWave(f, &events[j])
		}
		h := f.SizeHist()
		if s := f.Summarize(16); s.WaveReexecs != h.Sum || h.N != f.Waves() {
			b.Fatalf("summary wave re-executions %d, histogram %d over %d of %d waves", s.WaveReexecs, h.Sum, h.N, f.Waves())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/wave")
}
