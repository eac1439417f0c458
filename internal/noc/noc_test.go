package noc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

type rec struct {
	now  int64
	node int
	msg  int
}

func newTestNet(t *testing.T, cfg Config) (*Network[int], *[]rec) {
	t.Helper()
	var got []rec
	n, err := New[int](cfg, func(now int64, node int, msg int) {
		got = append(got, rec{now, node, msg})
	})
	if err != nil {
		t.Fatal(err)
	}
	// The callback closes over got's address via the returned pointer.
	_ = n
	return n, &got
}

func run(n *Network[int], from, to int64) {
	for c := from; c <= to; c++ {
		n.Tick(c)
	}
}

func TestDeliveryLatencyMatchesDistance(t *testing.T) {
	cfg := Config{Width: 4, Height: 4, HopLatency: 1, LinkBandwidth: 1, LocalLatency: 1}
	n, got := newTestNet(t, cfg)
	src := n.Node(0, 0)
	dst := n.Node(3, 2)
	n.Send(0, src, dst, 7)
	run(n, 0, 20)
	if len(*got) != 1 {
		t.Fatalf("deliveries = %v", *got)
	}
	d := (*got)[0]
	if d.node != dst || d.msg != 7 {
		t.Fatalf("delivery = %+v", d)
	}
	// 5 hops at latency 1; the message transmits on the Tick after Send.
	if want := int64(n.Distance(src, dst)); d.now != want {
		t.Errorf("arrival at %d, want %d", d.now, want)
	}
	if n.Pending() != 0 {
		t.Error("network not quiet")
	}
}

func TestLocalDelivery(t *testing.T) {
	cfg := Config{Width: 2, Height: 2, HopLatency: 1, LinkBandwidth: 1, LocalLatency: 1}
	n, got := newTestNet(t, cfg)
	n.Send(0, 3, 3, 9)
	run(n, 0, 3)
	if len(*got) != 1 || (*got)[0].now != 1 {
		t.Fatalf("got = %v", *got)
	}
}

func TestHopLatencyScales(t *testing.T) {
	for _, hop := range []int{1, 2, 4} {
		cfg := Config{Width: 4, Height: 1, HopLatency: hop, LinkBandwidth: 4, LocalLatency: 1}
		n, got := newTestNet(t, cfg)
		n.Send(0, 0, 3, 1)
		run(n, 0, 50)
		if len(*got) != 1 {
			t.Fatalf("hop=%d: got %v", hop, *got)
		}
		if want := int64(3 * hop); (*got)[0].now != want {
			t.Errorf("hop=%d: arrival %d, want %d", hop, (*got)[0].now, want)
		}
	}
}

func TestFIFOOrderOnSameRoute(t *testing.T) {
	cfg := Config{Width: 4, Height: 1, HopLatency: 1, LinkBandwidth: 1, LocalLatency: 1}
	n, got := newTestNet(t, cfg)
	for i := 0; i < 5; i++ {
		n.Send(0, 0, 3, i)
	}
	run(n, 0, 30)
	if len(*got) != 5 {
		t.Fatalf("got = %v", *got)
	}
	for i, d := range *got {
		if d.msg != i {
			t.Fatalf("out of order: %v", *got)
		}
		if i > 0 && d.now < (*got)[i-1].now {
			t.Fatalf("time went backwards: %v", *got)
		}
	}
}

func TestBandwidthContention(t *testing.T) {
	// 10 messages across one link at bandwidth 1 vs bandwidth 4.
	arrivalSpan := func(bw int) int64 {
		cfg := Config{Width: 2, Height: 1, HopLatency: 1, LinkBandwidth: bw, LocalLatency: 1}
		var last int64
		n, _ := New[int](cfg, func(now int64, node int, msg int) { last = now })
		for i := 0; i < 10; i++ {
			n.Send(0, 0, 1, i)
		}
		for c := int64(0); c <= 40; c++ {
			n.Tick(c)
		}
		if n.Pending() != 0 {
			t.Fatalf("bw=%d: network not drained", bw)
		}
		return last
	}
	if narrow, wide := arrivalSpan(1), arrivalSpan(4); narrow <= wide {
		t.Errorf("bandwidth 1 finished at %d, not slower than bandwidth 4 at %d", narrow, wide)
	}
}

// TestAllPairsDelivery property: any (src, dst) pair delivers exactly once,
// to the right node, within (distance × hop) + slack cycles.
func TestAllPairsDelivery(t *testing.T) {
	cfg := Config{Width: 5, Height: 3, HopLatency: 2, LinkBandwidth: 2, LocalLatency: 1}
	f := func(s, d uint8) bool {
		src := int(s) % (cfg.Width * cfg.Height)
		dst := int(d) % (cfg.Width * cfg.Height)
		var deliveries []rec
		n, _ := New[int](cfg, func(now int64, node int, msg int) {
			deliveries = append(deliveries, rec{now, node, msg})
		})
		n.Send(0, src, dst, 1)
		for c := int64(0); c <= 100; c++ {
			n.Tick(c)
		}
		if len(deliveries) != 1 || deliveries[0].node != dst {
			return false
		}
		wantMax := int64(n.Distance(src, dst)*cfg.HopLatency) + 2
		return deliveries[0].now <= wantMax && n.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestNextLinkMatchesRouteXY pins the routing table New builds to the
// dimension-order rule it replaces on the hot path: on every mesh from 1×1
// to 9×9, square or not, next[src*nodes+dst] must be src*4 + routeXY for
// every (src, dst) pair, and for src != dst the chosen link must lead onto
// the mesh, one hop closer to dst.
func TestNextLinkMatchesRouteXY(t *testing.T) {
	for w := 1; w <= 9; w++ {
		for h := 1; h <= 9; h++ {
			cfg := Config{Width: w, Height: h, HopLatency: 1, LinkBandwidth: 1, LocalLatency: 1}
			n, err := New[int](cfg, func(int64, int, int) {})
			if err != nil {
				t.Fatal(err)
			}
			nodes := w * h
			if len(n.next) != nodes*nodes {
				t.Fatalf("%dx%d: table has %d entries, want %d", w, h, len(n.next), nodes*nodes)
			}
			for src := 0; src < nodes; src++ {
				x, y := n.Coords(src)
				for dst := 0; dst < nodes; dst++ {
					dx, dy := n.Coords(dst)
					got := n.next[src*nodes+dst]
					if want := int32(src*int(numDirs) + int(routeXY(x, y, dx, dy))); got != want {
						t.Fatalf("%dx%d: next[%d→%d] = %d, want %d", w, h, src, dst, got, want)
					}
					if src == dst {
						continue
					}
					end := n.ends[got]
					if end < 0 || n.Distance(int(end), dst) != n.Distance(src, dst)-1 {
						t.Fatalf("%dx%d: next[%d→%d] leads to node %d, not one hop closer", w, h, src, dst, end)
					}
				}
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Width: 0, Height: 1, HopLatency: 1, LinkBandwidth: 1, LocalLatency: 1},
		{Width: 1, Height: 1, HopLatency: 0, LinkBandwidth: 1, LocalLatency: 1},
		{Width: 1, Height: 1, HopLatency: 1, LinkBandwidth: 0, LocalLatency: 1},
		{Width: 1, Height: 1, HopLatency: 1, LinkBandwidth: 1, LocalLatency: 0},
	}
	for _, cfg := range bad {
		if _, err := New[int](cfg, func(int64, int, int) {}); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// TestSendDuringLocalDelivery is the regression test for a lost-message
// bug: a handler that Sends to its own node while a local delivery is being
// processed must not have that message dropped by the pending-list filter.
func TestSendDuringLocalDelivery(t *testing.T) {
	cfg := Config{Width: 2, Height: 2, HopLatency: 1, LinkBandwidth: 1, LocalLatency: 1}
	var got []int
	var n *Network[int]
	n, _ = New[int](cfg, func(now int64, node int, msg int) {
		got = append(got, msg)
		if msg < 3 {
			n.Send(now, node, node, msg+1) // chain of self-sends
		}
	})
	n.Send(0, 2, 2, 0)
	for c := int64(0); c <= 20; c++ {
		n.Tick(c)
	}
	if len(got) != 4 || n.Pending() != 0 {
		t.Fatalf("got %v, pending %d; chained self-sends were lost", got, n.Pending())
	}
}

// BenchmarkMeshThroughput measures steady-state message delivery on the
// default-sized mesh.
func BenchmarkMeshThroughput(b *testing.B) {
	cfg := Config{Width: 5, Height: 5, HopLatency: 1, LinkBandwidth: 4, LocalLatency: 1}
	n, _ := New[int](cfg, func(int64, int, int) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cyc := int64(i)
		n.Send(cyc, i%25, (i*7)%25, i)
		n.Tick(cyc)
	}
	b.StopTimer()
	reportHops(b, n)
	// Drain so Pending doesn't grow unboundedly across -benchtime runs.
	for c := int64(b.N); n.Pending() > 0; c++ {
		n.Tick(c)
	}
}

// BenchmarkMeshSaturated measures per-tick cost with every link loaded:
// each cycle, every node injects one message to the node diagonally across
// the mesh, keeping all links occupied and forcing bandwidth-limited
// transmits, multi-hop forwards, and queue-reclaim.  The simulator's
// traffic never gets this dense; BenchmarkMeshSparse models it.
func BenchmarkMeshSaturated(b *testing.B) {
	cfg := Config{Width: 5, Height: 5, HopLatency: 1, LinkBandwidth: 2, LocalLatency: 1}
	delivered := 0
	n, _ := New[int](cfg, func(int64, int, int) { delivered++ })
	nodes := cfg.Width * cfg.Height
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cyc := int64(i)
		// Top occupancy back up to 4 in-flight messages per node: reversal
		// traffic injects faster than the mesh drains, so without a cap the
		// queues (and the drain below) would grow with b.N.
		for src := 0; src < nodes && n.Pending() < 4*nodes; src++ {
			n.Send(cyc, src, nodes-1-src, src)
		}
		n.Tick(cyc)
	}
	b.StopTimer()
	reportHops(b, n)
	for c := int64(b.N); n.Pending() > 0; c++ {
		n.Tick(c)
	}
	b.ReportMetric(float64(delivered)/float64(b.N), "msgs/tick")
}

// BenchmarkMeshSparse measures per-tick cost at the load the simulator
// actually puts on the mesh: default bandwidth 4, 2–9 injections per cycle
// between uniformly drawn nodes, so links rarely contend and most of the
// cost is per-hop bookkeeping.  5×5 is the default grid's mesh (4×4 tiles
// plus the D/G column and register row), 9×9 the 8×8 wide-window grid's.
func BenchmarkMeshSparse(b *testing.B) {
	for _, side := range []int{5, 9} {
		b.Run(fmt.Sprintf("%dx%d", side, side), func(b *testing.B) {
			cfg := Config{Width: side, Height: side, HopLatency: 1, LinkBandwidth: 4, LocalLatency: 1}
			n, _ := New[int](cfg, func(int64, int, int) {})
			// A fixed table of draws keeps the generator out of the timed loop.
			rng := rand.New(rand.NewSource(1))
			draws := make([]int, 1<<12)
			for i := range draws {
				draws[i] = rng.Intn(side * side)
			}
			next := 0
			draw := func() int {
				next = (next + 1) & (len(draws) - 1)
				return draws[next]
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cyc := int64(i)
				for k := 2 + draw()%8; k > 0; k-- {
					n.Send(cyc, draw(), draw(), i)
				}
				n.Tick(cyc)
			}
			b.StopTimer()
			reportHops(b, n)
			for c := int64(b.N); n.Pending() > 0; c++ {
				n.Tick(c)
			}
		})
	}
}

// reportHops adds host time per link traversal and traversals per tick to
// a mesh benchmark's output; call it after stopping the timer, before
// draining.
func reportHops(b *testing.B, n *Network[int]) {
	if n.Stats.Hops == 0 {
		return
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n.Stats.Hops), "ns/hop")
	b.ReportMetric(float64(n.Stats.Hops)/float64(b.N), "hops/tick")
}

// TestWireListMatchesReference is the network's differential test against
// the reference mesh (reference_test.go), in both its active-index and its
// dense mode.  Over fixed seeds it draws a mesh of 1–6 nodes on a side,
// hop latency 1–3, bandwidth 1–4 and local latency 1–2, then drives bursty
// traffic — quiet gaps, src==dst local bypass, repeated sources, and sends
// from inside deliver — under every-cycle ticking and under NextEvent
// fast-forward jumps.  The delivery log must match exactly, and so must
// Stats, Pending and NextEvent after every tick.
func TestWireListMatchesReference(t *testing.T) {
	seeds := int64(400)
	if testing.Short() {
		seeds = 80
	}
	for seed := int64(1); seed <= seeds; seed++ {
		if msg := diffReference(seed, seed%2 == 0); msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
	}
}

// diffReference runs one seed's traffic through the network and both
// reference modes and returns the first divergence, or "".
func diffReference(seed int64, fastForward bool) string {
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{
		Width:         1 + rng.Intn(6),
		Height:        1 + rng.Intn(6),
		HopLatency:    1 + rng.Intn(3),
		LinkBandwidth: 1 + rng.Intn(4),
		LocalLatency:  1 + rng.Intn(2),
	}
	nodes := cfg.Width * cfg.Height
	// Deliveries of positive multiples of 3 send a reply (negated, so it
	// is not answered again) from the delivering node; the reply's
	// destination depends only on the message, so a network that delivers
	// correctly sends exactly the reference's replies.
	logger := func(log *[]rec, send func(now int64, src, dst, msg int)) func(int64, int, int) {
		return func(now int64, node, msg int) {
			*log = append(*log, rec{now, node, msg})
			if msg > 0 && msg%3 == 0 {
				send(now, node, (msg*7+node)%nodes, -msg)
			}
		}
	}
	// cfg is valid by construction, so New's error is not checked.
	var got, idxLog, denseLog []rec
	var net *Network[int]
	var idx, dense *refNetwork[int]
	net, _ = New[int](cfg, logger(&got, func(now int64, src, dst, msg int) { net.Send(now, src, dst, msg) }))
	idx, _ = newRef[int](cfg, false, logger(&idxLog, func(now int64, src, dst, msg int) { idx.Send(now, src, dst, msg) }))
	dense, _ = newRef[int](cfg, true, logger(&denseLog, func(now int64, src, dst, msg int) { dense.Send(now, src, dst, msg) }))

	msg := 0
	cycle := int64(0)
	for step := 0; step < 400 && (step < 150 || net.Pending() > 0); step++ {
		// Bursty injection, only during the first 150 steps: quiet stretches
		// leave the mesh empty, bursts contend for links.
		k := 0
		if step < 150 {
			switch rng.Intn(4) {
			case 0:
				k = rng.Intn(7)
			case 1:
				k = rng.Intn(2)
			}
		}
		for i := 0; i < k; i++ {
			src := rng.Intn(nodes)
			dst := src // src==dst local bypass, deliberately common
			if rng.Intn(3) != 0 {
				dst = rng.Intn(nodes)
			}
			msg++
			net.Send(cycle, src, dst, msg)
			idx.Send(cycle, src, dst, msg)
			dense.Send(cycle, src, dst, msg)
		}
		moved := net.Tick(cycle)
		if m := idx.Tick(cycle); m != moved || dense.Tick(cycle) != moved {
			return fmt.Sprintf("cycle %d: Tick moved=%v, reference %v", cycle, moved, m)
		}
		cycle++
		ne := net.NextEvent(cycle)
		switch {
		case net.Pending() != idx.Pending() || net.Pending() != dense.Pending():
			return fmt.Sprintf("cycle %d: pending %d, reference %d/%d", cycle, net.Pending(), idx.Pending(), dense.Pending())
		case net.Stats != idx.Stats || net.Stats != dense.Stats:
			return fmt.Sprintf("cycle %d: stats %+v, reference %+v/%+v", cycle, net.Stats, idx.Stats, dense.Stats)
		case ne != idx.NextEvent(cycle) || ne != dense.NextEvent(cycle):
			return fmt.Sprintf("cycle %d: next event %d, reference %d/%d", cycle, ne, idx.NextEvent(cycle), dense.NextEvent(cycle))
		}
		// Fast-forward mode jumps like the simulator does after a no-op
		// cycle: to the next network event, or sooner for a random
		// injection gap.
		if fastForward && !moved && ne != Never {
			if gap := cycle + int64(rng.Intn(8)); gap < ne {
				ne = gap
			}
			cycle = ne
		}
	}
	if net.Pending() != 0 {
		return "network failed to drain"
	}
	if !reflect.DeepEqual(got, idxLog) || !reflect.DeepEqual(got, denseLog) {
		return fmt.Sprintf("delivery logs diverge (%d deliveries, reference %d/%d)", len(got), len(idxLog), len(denseLog))
	}
	return ""
}

// TestNextEventAgreesWithTick pins NextEvent's contract on random traffic:
// whenever the network is pending, ticking cycles strictly before
// NextEvent's answer moves nothing, and ticking at it moves something.
func TestNextEventAgreesWithTick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := Config{Width: 4, Height: 4, HopLatency: 3, LinkBandwidth: 2, LocalLatency: 2}
	n, _ := newTestNet(t, cfg)
	cycle := int64(0)
	for round := 0; round < 200; round++ {
		for i := rng.Intn(3); i > 0; i-- {
			n.Send(cycle, rng.Intn(16), rng.Intn(16), round)
		}
		if n.Pending() == 0 {
			if got := n.NextEvent(cycle); got != Never {
				t.Fatalf("cycle %d: quiet network reports next event %d", cycle, got)
			}
			cycle++
			continue
		}
		next := n.NextEvent(cycle)
		if next < cycle || next == Never {
			t.Fatalf("cycle %d: pending network reports next event %d", cycle, next)
		}
		for ; cycle < next; cycle++ {
			if n.Tick(cycle) {
				t.Fatalf("cycle %d: movement before predicted next event %d", cycle, next)
			}
		}
		if !n.Tick(next) {
			t.Fatalf("cycle %d: no movement at predicted next event", next)
		}
		cycle = next + 1
	}
}
