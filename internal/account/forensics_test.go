package account

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

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

// streamCoverage counts the two seq-reuse shapes a stream exercised.
type streamCoverage struct {
	// squashReuse: a repair of a refetched block's load (same seq and
	// LSID, different PC) after a repair of the squashed instance.
	squashReuse int
	// frameReuse: a repair at seq after one at seq-frames, whose slot it
	// takes over.
	frameReuse int
}

// genStream produces n Record calls as a machine with the given frame
// count would issue them: repairs land only on live blocks of a contiguous
// window of at most frames seqs, commits retire the oldest block, squashes
// rewind the next seq so refetched blocks reuse seqs (with new block IDs,
// hence new PCs), and every repair allocates a fresh tag (flushes now and
// then carry tag zero, as hand-written streams do).
func genStream(rng *rand.Rand, frames, n int, cov *streamCoverage) []recordArgs {
	var (
		oldest, next int64
		nextTag      core.Tag
		blockOf      = map[int64]int{}
		recorded     = map[int64]bool{}
		lastPC       = map[[2]int64]predictor.PC{}
		out          []recordArgs
	)
	for len(out) < n {
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
			nextTag += core.Tag(1 + rng.Intn(3))
			a.tag = nextTag
			if a.kind == EventFlush && rng.Intn(8) == 0 {
				a.tag = 0
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
			out = append(out, a)
		}
	}
	return out
}

// TestForensicsMatchesReference drives the folded Forensics and the
// log-based reference with the same random Record streams and requires
// identical summaries under several top caps, both mid-stream (Summarize
// must not disturb later folding) and at the end.
func TestForensicsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var cov streamCoverage
	for stream := 0; stream < 400; stream++ {
		frames := []int{2, 3, 4, 8}[rng.Intn(4)]
		events := genStream(rng, frames, 1+rng.Intn(300), &cov)
		mul, add, mod := uint64(1+rng.Intn(97)), uint64(rng.Intn(13)), uint64(1+rng.Intn(20))
		waveSize := func(t core.Tag) int64 { return int64((uint64(t)*mul + add) % mod) }
		total := int64(rng.Intn(100000))
		got, want := NewForensics(frames), newRefForensics()
		check := func(at int) {
			for _, top := range []int{0, 1, 2, 3, 16, -1} {
				g := got.Summarize(waveSize, total, top)
				w := want.Summarize(waveSize, total, top)
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("stream %d (frames %d) after %d events, top %d:\n got %+v\nwant %+v",
						stream, frames, at, top, g, w)
				}
			}
			if got.Events() != len(want.events) {
				t.Fatalf("stream %d: Events() = %d, want %d", stream, got.Events(), len(want.events))
			}
		}
		mid := rng.Intn(len(events))
		for i, a := range events {
			if i == mid {
				check(i)
			}
			got.Record(a.kind, a.seq, a.lsid, a.loadPC, a.storePC, a.tag, a.parent, a.cost)
			want.Record(a.kind, a.seq, a.lsid, a.loadPC, a.storePC, a.tag, a.parent, a.cost)
		}
		check(len(events))
	}
	if cov.squashReuse == 0 || cov.frameReuse == 0 {
		t.Fatalf("streams missed a seq-reuse shape: %+v", cov)
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
// each block seq takes four repairs at random LSIDs of a 16-PC load set,
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

// TestForensicsRetainedBytesPerEvent pins the audit's memory: after 200k
// wave repairs the live heap it holds is the dense per-tag state (8 bytes
// a tag plus slice growth slack), not a log.
func TestForensicsRetainedBytesPerEvent(t *testing.T) {
	const n = 200_000
	events := make([]recordArgs, n)
	waveStream(events)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f := NewForensics(8)
	for _, a := range events {
		f.Record(a.kind, a.seq, a.lsid, a.loadPC, a.storePC, a.tag, a.parent, a.cost)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEvent := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	runtime.KeepAlive(f)
	runtime.KeepAlive(events)
	t.Logf("retained %.1f B/event", perEvent)
	if perEvent > 24 {
		t.Fatalf("Forensics retains %.1f B/event, budget 24", perEvent)
	}
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
