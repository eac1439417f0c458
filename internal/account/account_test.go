package account

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/predictor"
)

func TestBucketStringsDistinct(t *testing.T) {
	seen := map[string]Bucket{}
	for b := Bucket(0); b < NumBuckets; b++ {
		s := b.String()
		if s == "" || strings.HasPrefix(s, "bucket(") {
			t.Fatalf("bucket %d has no name: %q", b, s)
		}
		if prev, ok := seen[s]; ok {
			t.Fatalf("buckets %d and %d share name %q", prev, b, s)
		}
		seen[s] = b
	}
	if got := NumBuckets.String(); !strings.HasPrefix(got, "bucket(") {
		t.Fatalf("sentinel String() = %q", got)
	}
}

func TestCPIStackAddGetTotalSub(t *testing.T) {
	var c CPIStack
	for b := Bucket(0); b < NumBuckets; b++ {
		c.Add(b, int64(b)+1)
	}
	for b := Bucket(0); b < NumBuckets; b++ {
		if got := c.Get(b); got != int64(b)+1 {
			t.Fatalf("Get(%s) = %d, want %d", b, got, int64(b)+1)
		}
	}
	// 1+2+...+8 = 36
	if got := c.Total(); got != 36 {
		t.Fatalf("Total() = %d, want 36", got)
	}
	prev := c
	c.Add(BucketWave, 5)
	d := c.Sub(prev)
	if d.Wave != 5 || d.Total() != 5 {
		t.Fatalf("Sub delta = %+v, want only wave=5", d)
	}
	// Sentinel Add/Get are inert.
	before := c
	c.Add(NumBuckets, 99)
	if c != before || c.Get(NumBuckets) != 0 {
		t.Fatalf("sentinel bucket mutated the stack")
	}
}

func TestCPIStackString(t *testing.T) {
	var c CPIStack
	if got := c.String(); got != "(empty)" {
		t.Fatalf("empty String() = %q", got)
	}
	c.Add(BucketCommit, 3)
	c.Add(BucketFetch, 1)
	got := c.String()
	if !strings.Contains(got, "commit=3 (75.0%)") || !strings.Contains(got, "fetch=1 (25.0%)") {
		t.Fatalf("String() = %q", got)
	}
}

func TestCPIStackJSONRoundTrip(t *testing.T) {
	c := CPIStack{Commit: 1, Wave: 2, BPred: 3, Fetch: 4, Drain: 5, CacheMiss: 6, Issue: 7, NoC: 8}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back CPIStack
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != c {
		t.Fatalf("round trip: got %+v want %+v", back, c)
	}
}

func TestFlightRecorderWraps(t *testing.T) {
	fr := NewFlightRecorder(4)
	for i := int64(0); i < 10; i++ {
		fr.Record(Snapshot{Cycle: i, Attributed: BucketFetch})
	}
	if fr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", fr.Len())
	}
	snaps := fr.Snapshots()
	for i, s := range snaps {
		if want := int64(6 + i); s.Cycle != want {
			t.Fatalf("snapshot %d cycle = %d, want %d", i, s.Cycle, want)
		}
	}
	dump := fr.Dump()
	if !strings.Contains(dump, "flight recorder (last 4 cycles):") {
		t.Fatalf("dump header missing: %q", dump)
	}
	if strings.Contains(dump, "cycle=5 ") || !strings.Contains(dump, "cycle=9 ") {
		t.Fatalf("dump window wrong:\n%s", dump)
	}
}

func TestForensicsDepthWastedAndProfiles(t *testing.T) {
	f := NewForensics(8)
	loadA := predictor.MakePC(3, 1)
	loadB := predictor.MakePC(7, 2)
	store1 := predictor.MakePC(2, 0)
	store2 := predictor.MakePC(2, 4)

	// Wave 10 repairs load A (store un-speculative): depth 1.
	f.Record(EventWave, 100, 1, loadA, store1, core.Tag(10), 0, 40)
	// Wave 11 repairs load B, triggered by a store running under wave 10:
	// depth 2.
	f.Record(EventWave, 101, 2, loadB, store2, core.Tag(11), core.Tag(10), 30)
	// Load A (same dynamic instance) re-violates: the first wave's work was
	// wasted.
	f.Record(EventWave, 100, 1, loadA, store2, core.Tag(12), 0, 20)
	// A flush repair and a VP repair round out the kinds.
	f.Record(EventFlush, 102, 1, loadA, store1, core.Tag(13), 0, 15)
	f.Record(EventVP, 103, 3, loadB, 0, core.Tag(14), 0, 0)

	// Re-executions: waves 10, 11, 12 and VP wave 14 run 4, 3, 2 and 1;
	// flush tag 13 and tag 0 one each, which no audited wave accounts for.
	for tag, n := range map[core.Tag]int{10: 4, 11: 3, 12: 2, 14: 1, 13: 1, 0: 1} {
		for range n {
			f.Reexecuted(tag)
		}
	}

	s := f.Summarize(10)
	if s.Events != 5 || s.FlushEvents != 1 || s.WaveEvents != 3 || s.VPEvents != 1 {
		t.Fatalf("event counts: %+v", s)
	}
	// Waves 10,11,12 and VP wave 14 are audited: 4+3+2+1 = 10 of 12 total.
	if s.WaveReexecs != 10 || s.UnattributedReexecs != 2 {
		t.Fatalf("reexec attribution: %+v", s)
	}
	if s.WastedReexecs != 4 { // wave 10 was superseded
		t.Fatalf("WastedReexecs = %d, want 4", s.WastedReexecs)
	}
	if s.MaxDepth != 2 {
		t.Fatalf("MaxDepth = %d, want 2", s.MaxDepth)
	}
	if s.SquashCost != 40+30+20+15 {
		t.Fatalf("SquashCost = %d", s.SquashCost)
	}
	if len(s.Loads) != 2 {
		t.Fatalf("Loads = %+v", s.Loads)
	}
	// Load A has 3 events, B has 2: A first.
	a, b := s.Loads[0], s.Loads[1]
	if a.LoadPC != loadA.String() || b.LoadPC != loadB.String() {
		t.Fatalf("profile order: %q then %q", a.LoadPC, b.LoadPC)
	}
	if a.Events != 3 || a.Flushes != 1 || a.Waves != 2 || a.Wasted != 4 {
		t.Fatalf("load A profile: %+v", a)
	}
	if b.Events != 2 || b.Waves != 1 || b.VPRepairs != 1 || b.MaxDepth != 2 {
		t.Fatalf("load B profile: %+v", b)
	}
	// Load A conflicted with store1 twice and store2 once.
	if len(a.TopStores) != 2 || a.TopStores[0].StorePC != store1.String() || a.TopStores[0].Count != 2 {
		t.Fatalf("load A top stores: %+v", a.TopStores)
	}
	// VP events carry no store PC.
	if len(b.TopStores) != 1 || b.TopStores[0].StorePC != store2.String() {
		t.Fatalf("load B top stores: %+v", b.TopStores)
	}
}

func TestForensicsTopTruncation(t *testing.T) {
	f := NewForensics(8)
	for i := 0; i < 6; i++ {
		load := predictor.MakePC(i, 0)
		for j := 0; j <= i; j++ {
			f.Record(EventFlush, int64(100*i+j), 0, load, predictor.MakePC(50+j, 0), 0, 0, 1)
		}
	}
	s := f.Summarize(2)
	if len(s.Loads) != 2 {
		t.Fatalf("top truncation: %d loads", len(s.Loads))
	}
	// Hottest load is block 5 (6 events) then block 4 (5 events).
	if s.Loads[0].LoadPC != predictor.MakePC(5, 0).String() || s.Loads[0].Events != 6 {
		t.Fatalf("hottest load: %+v", s.Loads[0])
	}
	if len(s.Loads[1].TopStores) != 2 {
		t.Fatalf("store truncation: %+v", s.Loads[1].TopStores)
	}
	// Totals still cover the whole log, not just the shown top-N.
	if s.Events != 6+5+4+3+2+1 || s.FlushEvents != s.Events {
		t.Fatalf("totals truncated: %+v", s)
	}
}
