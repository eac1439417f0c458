// Package noc models the operand network of a TRIPS-like EDGE processor: a
// 2-D mesh with dimension-order (X-then-Y) routing, a configurable per-hop
// latency, and per-link bandwidth with FIFO queueing.
//
// The network is generic over its payload so it carries operand messages,
// commit-wave tokens, memory traffic and control messages without knowing
// their contents.  Links preserve FIFO order, but messages taking different
// routes may be reordered — the DSRE protocol's wave tags are what make that
// safe, and the simulator's tests rely on it.
//
// State is kept per link, not per router.  Flits awaiting bandwidth sit in
// per-link FIFOs indexed by link id (node*4 + direction) under one occupancy
// bitmask; flits on the wire sit in one flat list per transmit cycle.  The
// transmit phase walks the bitmask in ascending link id and each FIFO from
// its head, so a wire list is born in (link, FIFO) order — the order its
// arrivals are processed in, a cycle's worth at a time.
package noc

import (
	"fmt"
	"math/bits"
)

// Dir is a mesh link direction.
type dir int

const (
	dirE dir = iota
	dirW
	dirN
	dirS
	numDirs
)

// Config describes the mesh.
type Config struct {
	Width  int
	Height int
	// HopLatency is the per-hop transit time in cycles (>= 1).
	HopLatency int
	// LinkBandwidth is the number of messages one link accepts per cycle.
	LinkBandwidth int
	// LocalLatency is the delivery delay for messages whose source and
	// destination coincide (same-tile bypass); >= 1.
	LocalLatency int
}

// Stats counts network activity.
type Stats struct {
	Messages  int64 // injected
	Delivered int64
	Hops      int64 // link traversals
	QueueWait int64 // cycles messages spent waiting for link bandwidth
}

// await is one flit in a link FIFO, waiting for bandwidth: its pool slot,
// destination coordinates (so per-hop routing never divides) and the cycle
// it entered the FIFO, for QueueWait.
type await struct {
	idx        int32
	dstX, dstY int16
	enqueued   int64
}

// wire is one flit in transit on a link: its pool slot, the link's far end
// (node index and coordinates) and its destination coordinates.
type wire struct {
	idx        int32
	node       int32
	x, y       int16
	dstX, dstY int16
}

// localMsg is a src==dst message awaiting same-tile delivery.
type localMsg struct {
	idx      int32
	node     int32
	arriveAt int64
}

// fifo is one link's queue of awaiting flits.  Entries before head have been
// transmitted; they are reclaimed when the queue drains, or by compaction
// once they dominate (amortised O(1) per flit).
type fifo struct {
	q    []await
	head int
}

// batch is the wire list one transmit cycle produced: every flit in it
// arrives at the same cycle.
type batch struct {
	at int64
	w  []wire
}

// linkEnd is a link's precomputed far end.
type linkEnd struct {
	node int32
	x, y int16
}

// Network is the mesh.  Deliver is invoked during Tick for every message
// reaching its destination's local port.
type Network[T any] struct {
	cfg Config
	// ends and fifos are indexed by link id node*4 + dir; occ has bit l set
	// iff fifos[l] holds an awaiting flit.
	ends  []linkEnd
	fifos []fifo
	occ   []uint64
	// ring holds the in-flight wire lists, oldest at ring[rhead], in
	// ascending arrival order.  Under Tick's contract at most HopLatency
	// lists are in flight, so HopLatency+1 slots with recycled buffers
	// suffice and steady state is allocation-free.
	ring          []batch
	rhead, nbatch int
	// flits is the payload pool; free lists its reusable slots.  Both reach
	// a high-water mark and stay allocation-free in steady state.
	flits []T
	free  []int32
	local []localMsg
	// localSpare is the detached buffer Tick swaps with local, so local
	// delivery with stragglers does not reallocate every cycle.
	localSpare []localMsg
	deliver    func(now int64, node int, msg T)
	pending    int
	Stats      Stats
}

// New builds a mesh network.  deliver may Send (the message is queued, never
// delivered within the same call).
func New[T any](cfg Config, deliver func(now int64, node int, msg T)) (*Network[T], error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("noc: %dx%d mesh", cfg.Width, cfg.Height)
	}
	if cfg.HopLatency < 1 {
		return nil, fmt.Errorf("noc: hop latency %d < 1", cfg.HopLatency)
	}
	if cfg.LinkBandwidth < 1 {
		return nil, fmt.Errorf("noc: link bandwidth %d < 1", cfg.LinkBandwidth)
	}
	if cfg.LocalLatency < 1 {
		return nil, fmt.Errorf("noc: local latency %d < 1", cfg.LocalLatency)
	}
	nl := cfg.Width * cfg.Height * int(numDirs)
	n := &Network[T]{
		cfg:     cfg,
		ends:    make([]linkEnd, nl),
		fifos:   make([]fifo, nl),
		occ:     make([]uint64, (nl+63)/64),
		ring:    make([]batch, cfg.HopLatency+1),
		deliver: deliver,
	}
	for l := range n.ends {
		x, y := n.Coords(l / int(numDirs))
		switch dir(l % int(numDirs)) {
		case dirE:
			x++
		case dirW:
			x--
		case dirN:
			y++
		case dirS:
			y--
		}
		// Edge links lead off the mesh; routing never sends on them.
		n.ends[l] = linkEnd{node: -1}
		if x >= 0 && x < cfg.Width && y >= 0 && y < cfg.Height {
			n.ends[l] = linkEnd{node: int32(n.Node(x, y)), x: int16(x), y: int16(y)}
		}
	}
	return n, nil
}

// Node converts mesh coordinates to a node index.
func (n *Network[T]) Node(x, y int) int { return y*n.cfg.Width + x }

// Coords converts a node index back to mesh coordinates.
func (n *Network[T]) Coords(node int) (x, y int) {
	return node % n.cfg.Width, node / n.cfg.Width
}

// Distance returns the Manhattan distance between two nodes.
func (n *Network[T]) Distance(a, b int) int {
	ax, ay := n.Coords(a)
	bx, by := n.Coords(b)
	return abs(ax-bx) + abs(ay-by)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// alloc places a payload in the pool and returns its slot.
func (n *Network[T]) alloc(msg T) int32 {
	if k := len(n.free); k > 0 {
		i := n.free[k-1]
		n.free = n.free[:k-1]
		n.flits[i] = msg
		return i
	}
	n.flits = append(n.flits, msg)
	return int32(len(n.flits) - 1)
}

// enqueue appends a flit to link l's FIFO.
func (n *Network[T]) enqueue(l int, a await) {
	f := &n.fifos[l]
	f.q = append(f.q, a)
	n.occ[l>>6] |= 1 << (uint(l) & 63)
}

// Send injects a message at src destined for dst.
func (n *Network[T]) Send(now int64, src, dst int, msg T) {
	n.Stats.Messages++
	n.pending++
	i := n.alloc(msg)
	if src == dst {
		n.local = append(n.local, localMsg{idx: i, node: int32(dst), arriveAt: now + int64(n.cfg.LocalLatency)})
		return
	}
	x, y := n.Coords(src)
	dx, dy := n.Coords(dst)
	d := routeXY(x, y, dx, dy)
	n.enqueue(src*int(numDirs)+int(d), await{idx: i, dstX: int16(dx), dstY: int16(dy), enqueued: now})
}

// routeXY picks the next direction from (x, y) toward (dx, dy) — dimension-
// ordered: X first, then Y.  Pure compares; the destination coordinates ride
// with the flit so per-hop routing never divides.
func routeXY(x, y, dx, dy int) dir {
	switch {
	case dx > x:
		return dirE
	case dx < x:
		return dirW
	case dy > y:
		return dirN
	default:
		return dirS
	}
}

// Tick advances the network one cycle: local and wire arrivals are
// processed (delivered, or forwarded into the next link's FIFO), then each
// link transmits up to its bandwidth.  It reports whether anything moved —
// false means the cycle was a provable no-op (all pending flits, if any, are
// still in transit toward a future cycle).
//
// Contract: now strictly increases across calls, and Tick runs at every
// cycle NextEvent names.  Then at most one wire list is due per call — the
// one transmitted HopLatency cycles earlier — and delivery order is (link
// id, FIFO) order within each cycle's arrivals.
func (n *Network[T]) Tick(now int64) bool {
	moved := false

	// Local deliveries.  The deliver callback may Send again (including to
	// the same node), so the pending list is detached before iterating —
	// a compact-in-place filter would silently drop messages enqueued
	// during delivery.  The detached buffer is recycled via localSpare.
	if len(n.local) > 0 {
		pending := n.local
		n.local = n.localSpare[:0]
		for _, t := range pending {
			if t.arriveAt <= now {
				n.Stats.Delivered++
				n.pending--
				// The msg argument is copied out of the pool before the
				// callback runs; the slot is freed after, so a reentrant
				// Send cannot clobber it.
				n.deliver(now, int(t.node), n.flits[t.idx])
				n.free = append(n.free, t.idx)
				moved = true
			} else {
				n.local = append(n.local, t)
			}
		}
		n.localSpare = pending[:0]
	}

	// Wire arrivals, one sequential pass over the due list.  Forwarding and
	// reentrant Sends only append to link FIFOs, never to a wire list.
	for n.nbatch > 0 && n.ring[n.rhead].at <= now {
		b := &n.ring[n.rhead]
		for _, w := range b.w {
			if w.x == w.dstX && w.y == w.dstY {
				n.Stats.Delivered++
				n.pending--
				n.deliver(now, int(w.node), n.flits[w.idx])
				n.free = append(n.free, w.idx)
				continue
			}
			d := routeXY(int(w.x), int(w.y), int(w.dstX), int(w.dstY))
			n.enqueue(int(w.node)*int(numDirs)+int(d), await{idx: w.idx, dstX: w.dstX, dstY: w.dstY, enqueued: now})
		}
		b.w = b.w[:0]
		if n.rhead++; n.rhead == len(n.ring) {
			n.rhead = 0
		}
		n.nbatch--
		moved = true
	}

	if n.transmit(now) {
		moved = true
	}
	return moved
}

// transmit moves up to LinkBandwidth flits from the head of every occupied
// link's FIFO, in ascending link id, onto one new wire list arriving at
// now + HopLatency.  It reports whether any flit moved.
func (n *Network[T]) transmit(now int64) bool {
	tail := n.rhead + n.nbatch
	if tail >= len(n.ring) {
		tail -= len(n.ring)
	}
	b := &n.ring[tail]
	bw := n.cfg.LinkBandwidth
	var hops, wait int64
	for wi, word := range n.occ {
		// Transmission never sets a bit, so the snapshot is exact.
		for word != 0 {
			l := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			f := &n.fifos[l]
			k := min(bw, len(f.q)-f.head)
			e := n.ends[l]
			for _, a := range f.q[f.head : f.head+k] {
				wait += now - a.enqueued
				b.w = append(b.w, wire{idx: a.idx, node: e.node, x: e.x, y: e.y, dstX: a.dstX, dstY: a.dstY})
			}
			hops += int64(k)
			f.head += k
			if f.head == len(f.q) {
				f.q, f.head = f.q[:0], 0
				n.occ[wi] &^= 1 << (uint(l) & 63)
			} else if f.head >= 32 && 2*f.head >= len(f.q) {
				m := copy(f.q, f.q[f.head:])
				f.q, f.head = f.q[:m], 0
			}
		}
	}
	if hops == 0 {
		return false
	}
	b.at = now + int64(n.cfg.HopLatency)
	n.nbatch++
	n.Stats.Hops += hops
	n.Stats.QueueWait += wait
	return true
}

// NextEvent returns the earliest cycle >= now at which Tick would move
// anything: now itself if any link holds an awaiting flit (it transmits this
// cycle), otherwise the earliest in-transit or local arrival.  With nothing
// pending it returns Never.
func (n *Network[T]) NextEvent(now int64) int64 {
	if n.pending == 0 {
		return Never
	}
	for _, word := range n.occ {
		if word != 0 {
			return now
		}
	}
	next := Never
	if n.nbatch > 0 {
		next = n.ring[n.rhead].at
	}
	for _, t := range n.local {
		if t.arriveAt < next {
			next = t.arriveAt
		}
	}
	if next < now {
		next = now
	}
	return next
}

// Never is NextEvent's "no pending event" sentinel, far beyond any cycle
// budget.
const Never = int64(1) << 62

// Pending returns the number of messages in flight (injected, not yet
// delivered); zero means the network is quiet.
func (n *Network[T]) Pending() int { return n.pending }
