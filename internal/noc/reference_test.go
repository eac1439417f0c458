package noc

// The reference mesh: the network's previous implementation, kept only as
// the oracle the differential tests check the wire-list network against.
// It tracks flits per router — per-link queues with wire/awaiting
// watermarks, resident counts and an active-router index — and its dense
// mode scans every router every cycle.  Tick order is routers ascending,
// then directions ascending, then FIFO, in both the arrival and the transmit
// phase.

import (
	"fmt"
	"math/bits"
)

// refFlit is one in-flight message's pooled payload: the message plus its
// routing header.  Flits live in the network's pool and are written once at
// injection and read once at delivery; the link queues move 24-byte entry
// indices between hops, never the payload.
type refFlit[T any] struct {
	msg T
	dst int32
	// dstX/dstY are dst's mesh coordinates, resolved once at injection so
	// per-hop routing is pure compares (no divisions).
	dstX, dstY int16
}

// refEntry is one link-queue (or local-queue) element: a pool index plus the
// timing the queue tracks.  This is what per-hop forwarding copies.
type refEntry struct {
	idx      int32
	enqueued int64 // cycle it entered the current queue, for QueueWait
	arriveAt int64
}

// refLink is one outgoing mesh link's FIFO, with two watermarks instead of two
// queues: entries in [head, sent) are on the wire (arriveAt stamped),
// entries in [sent, len) await link bandwidth, and entries before head have
// been consumed and are reclaimed when the queue drains (or by occasional
// compaction).  Transmission is therefore a pure in-place stamp — only an
// entry is copied per hop, into the next router's queue.
type refLink struct {
	q          []refEntry
	head, sent int
}

type refRouter struct {
	links [numDirs]refLink
	// resident counts unconsumed flits across the links; the active index
	// tracks resident > 0.
	resident int
	// wireMask/waitMask mark directions whose wire region [head, sent) /
	// awaiting region [sent, len) is non-empty, so the tick phases probe
	// only occupied links instead of all five headers.
	wireMask, waitMask uint8
	// neigh[d] is the static far end of link d (node index and mesh
	// coordinates); node is -1 on mesh edges, where routing never sends.
	neigh [numDirs]refNeighbor
}

// refNeighbor is one precomputed link endpoint.
type refNeighbor struct {
	node int32
	x, y int16
}

// refNetwork is the reference mesh.  Deliver is invoked during Tick for
// every message reaching its destination's local port.
type refNetwork[T any] struct {
	cfg Config
	// dense makes Tick scan every router instead of only the active ones.
	dense   bool
	routers []refRouter
	// flits is the payload pool; free lists its reusable slots.  Both reach
	// a high-water mark and stay allocation-free in steady state.
	flits []refFlit[T]
	free  []int32
	local []refEntry // src==dst messages awaiting local delivery
	// localSpare is the detached buffer Tick swaps with local, so local
	// delivery with stragglers does not reallocate every cycle.
	localSpare []refEntry
	deliver    func(now int64, node int, msg T)
	pending    int
	// active is a bitmask over routers with resident flits, iterated in
	// ascending node order to match the dense scan exactly.
	active []uint64
	Stats  Stats
}

// newRef builds a reference mesh; dense selects the every-router scan.
func newRef[T any](cfg Config, dense bool, deliver func(now int64, node int, msg T)) (*refNetwork[T], error) {
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
	nn := cfg.Width * cfg.Height
	n := &refNetwork[T]{
		cfg:     cfg,
		dense:   dense,
		routers: make([]refRouter, nn),
		active:  make([]uint64, (nn+63)/64),
		deliver: deliver,
	}
	for node := range n.routers {
		x, y := n.Coords(node)
		for d := dir(0); d < numDirs; d++ {
			nx, ny := x, y
			switch d {
			case dirE:
				nx++
			case dirW:
				nx--
			case dirN:
				ny++
			case dirS:
				ny--
			}
			nb := &n.routers[node].neigh[d]
			if nx < 0 || nx >= cfg.Width || ny < 0 || ny >= cfg.Height {
				nb.node = -1
				continue
			}
			nb.node, nb.x, nb.y = int32(n.Node(nx, ny)), int16(nx), int16(ny)
		}
	}
	return n, nil
}

// Node converts mesh coordinates to a node index.
func (n *refNetwork[T]) Node(x, y int) int { return y*n.cfg.Width + x }

// Coords converts a node index back to mesh coordinates.
func (n *refNetwork[T]) Coords(node int) (x, y int) {
	return node % n.cfg.Width, node / n.cfg.Width
}

// addResident maintains the active-router index (the invariant: a node's
// active bit is set iff its resident count is positive).  tickArrivals
// adjusts counts in batch form inline.
func (n *refNetwork[T]) addResident(node int) {
	r := &n.routers[node]
	if r.resident == 0 {
		n.active[node>>6] |= 1 << (uint(node) & 63)
	}
	r.resident++
}

// alloc places a flit in the pool and returns its slot.
func (n *refNetwork[T]) alloc(f refFlit[T]) int32 {
	if k := len(n.free); k > 0 {
		i := n.free[k-1]
		n.free = n.free[:k-1]
		n.flits[i] = f
		return i
	}
	n.flits = append(n.flits, f)
	return int32(len(n.flits) - 1)
}

// Send injects a message at src destined for dst.
func (n *refNetwork[T]) Send(now int64, src, dst int, msg T) {
	n.Stats.Messages++
	n.pending++
	dx, dy := n.Coords(dst)
	i := n.alloc(refFlit[T]{msg: msg, dst: int32(dst), dstX: int16(dx), dstY: int16(dy)})
	if src == dst {
		n.local = append(n.local, refEntry{idx: i, arriveAt: now + int64(n.cfg.LocalLatency)})
		return
	}
	x, y := n.Coords(src)
	d := routeXY(x, y, dx, dy)
	sr := &n.routers[src]
	sr.links[d].q = append(sr.links[d].q, refEntry{idx: i, enqueued: now})
	sr.waitMask |= 1 << d
	n.addResident(src)
}

// Tick advances the network one cycle: arrivals are processed (delivered or
// forwarded), then each link transmits up to its bandwidth.  It reports
// whether anything moved — false means the cycle was a provable no-op (all
// resident flits, if any, are still in transit toward a future cycle).
func (n *refNetwork[T]) Tick(now int64) bool {
	moved := false

	// Local deliveries.  The deliver callback may Send again (including to
	// the same node), so the pending list is detached before iterating —
	// a compact-in-place filter would silently drop messages enqueued
	// during delivery.  The detached buffer is recycled via localSpare.
	if len(n.local) > 0 {
		pending := n.local
		n.local = n.localSpare[:0]
		for i := range pending {
			t := pending[i]
			if t.arriveAt <= now {
				n.Stats.Delivered++
				n.pending--
				// The msg argument is copied out of the pool before the
				// callback runs; the slot is freed after, so a reentrant
				// Send cannot clobber it.
				n.deliver(now, int(n.flits[t.idx].dst), n.flits[t.idx].msg)
				n.free = append(n.free, t.idx)
				moved = true
			} else {
				n.local = append(n.local, t)
			}
		}
		n.localSpare = pending[:0]
	}

	// Arrivals at the far end of each link, then transmissions bounded by
	// link bandwidth.  Arrival forwarding only appends to the awaiting
	// region of link queues (never to the wire region it is scanning), and
	// transmission only stamps flits within one router, so visiting routers
	// in ascending order — dense or via the index — processes exactly the
	// same flits in the same order.
	if n.dense {
		for node := range n.routers {
			if n.tickArrivals(now, node) {
				moved = true
			}
		}
		for node := range n.routers {
			if n.tickTransmit(now, node) {
				moved = true
			}
		}
		return moved
	}
	for w, word := range n.active {
		// The word is snapshotted: arrivals may activate routers ahead of
		// the scan, but a freshly activated router has an empty wire
		// region, so skipping it matches the dense scan's no-op visit.
		for word != 0 {
			node := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if n.tickArrivals(now, node) {
				moved = true
			}
		}
	}
	for w, word := range n.active {
		// Transmission never touches other routers, and routers activated
		// by the arrival phase hold only awaiting flits enqueued *this*
		// cycle — the dense scan would visit them, find enqueued == now
		// flits, and transmit them.  So the transmit phase must see bits
		// set during the arrival phase: the live mask is re-read here, and
		// within a word the snapshot is safe because tickTransmit never
		// sets or clears any bit (resident counts are unchanged).
		for word != 0 {
			node := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if n.tickTransmit(now, node) {
				moved = true
			}
		}
	}
	return moved
}

// tickArrivals processes one router's due on-the-wire flits: delivery at
// the destination, or forwarding into the next router's link queue.
//
// The wire region [head, sent) is sorted by arriveAt — tickTransmit stamps
// now + HopLatency, and simulated time never decreases — so the due flits
// are a prefix.  The whole prefix is processed as one batch: the link's
// far-end node, its coordinates, and the neighbour router pointer are
// resolved once per queue, consumption is a head-index advance (no
// compaction copy), and the resident count is adjusted once.
func (n *refNetwork[T]) tickArrivals(now int64, node int) bool {
	r := &n.routers[node]
	moved := false
	// The deliver callback may Send from this node, but an injection lands
	// in an awaiting region (waitMask), never on the wire — the snapshot of
	// wireMask covers exactly the links this phase must probe.
	for wm := r.wireMask; wm != 0; wm &= wm - 1 {
		d := dir(bits.TrailingZeros8(wm))
		l := &r.links[d]
		// Snapshot: the deliver callback may Send onto this same link,
		// growing l.q; entries in [head, sent) are immutable across that.
		ts := l.q
		if ts[l.head].arriveAt > now {
			continue
		}
		due := l.sent
		for i := l.head + 1; i < l.sent; i++ {
			if ts[i].arriveAt > now {
				due = i
				break
			}
		}
		moved = true
		nb := r.neigh[d]
		at := int(nb.node)
		atx, aty := int(nb.x), int(nb.y)
		ar := &n.routers[at]
		// Forwarding appends land in the neighbour's awaiting region
		// [sent, len), which this phase never reads — the transmit phase
		// puts them on the wire, exactly as the dense reference would.
		for i := l.head; i < due; i++ {
			t := ts[i]
			// The pool pointer is re-read per flit: a delivery's reentrant
			// Send may grow n.flits.
			fl := &n.flits[t.idx]
			if at == int(fl.dst) {
				n.Stats.Delivered++
				n.pending--
				// msg is copied into the argument before the callback runs;
				// the slot is freed after, so a reentrant Send cannot
				// clobber it.
				n.deliver(now, at, fl.msg)
				n.free = append(n.free, t.idx)
				continue
			}
			nd := routeXY(atx, aty, int(fl.dstX), int(fl.dstY))
			if ar.resident == 0 {
				n.active[at>>6] |= 1 << (uint(at) & 63)
			}
			ar.resident++
			ar.waitMask |= 1 << nd
			al := &ar.links[nd]
			al.q = append(al.q, refEntry{idx: t.idx, enqueued: now})
		}
		// Batched resident accounting: the deliver callback may have Sent new
		// flits from this node mid-batch, so the count can stay positive.
		k := due - l.head
		l.head = due
		if l.head == l.sent {
			r.wireMask &^= 1 << d
		}
		r.resident -= k
		if r.resident == 0 {
			n.active[node>>6] &^= 1 << (uint(node) & 63)
		}
		// Reclaim consumed entries: reset when drained, else compact once
		// the dead prefix dominates (amortised O(1) per flit).
		if l.head == len(l.q) {
			l.q, l.head, l.sent = l.q[:0], 0, 0
		} else if l.head >= 32 && 2*l.head >= len(l.q) {
			m := copy(l.q, l.q[l.head:])
			l.q = l.q[:m]
			l.sent -= l.head
			l.head = 0
		}
	}
	return moved
}

// tickTransmit puts up to LinkBandwidth awaiting flits per link onto the
// wire: a pure in-place arriveAt stamp plus a watermark advance — no flit
// is copied.  arriveAt is the same for the whole batch, and now never
// decreases, so the wire region stays sorted — the invariant tickArrivals'
// prefix batching and NextEvent's head read rely on.
func (n *refNetwork[T]) tickTransmit(now int64, node int) bool {
	r := &n.routers[node]
	moved := false
	for wm := r.waitMask; wm != 0; wm &= wm - 1 {
		d := dir(bits.TrailingZeros8(wm))
		l := &r.links[d]
		waiting := len(l.q) - l.sent
		moved = true
		k := n.cfg.LinkBandwidth
		if k > waiting {
			k = waiting
		}
		arriveAt := now + int64(n.cfg.HopLatency)
		n.Stats.Hops += int64(k)
		for i := l.sent; i < l.sent+k; i++ {
			n.Stats.QueueWait += now - l.q[i].enqueued
			l.q[i].arriveAt = arriveAt
		}
		l.sent += k
		r.wireMask |= 1 << d
		if l.sent == len(l.q) {
			r.waitMask &^= 1 << d
		}
	}
	return moved
}

// NextEvent returns the earliest cycle >= now at which Tick would move
// anything: now itself if any link holds an awaiting flit (it transmits this
// cycle), otherwise the earliest in-transit or local arrival.  With nothing
// pending it returns Never.
func (n *refNetwork[T]) NextEvent(now int64) int64 {
	if n.pending == 0 {
		return Never
	}
	next := Never
	for _, t := range n.local {
		if t.arriveAt < next {
			next = t.arriveAt
		}
	}
	for w, word := range n.active {
		for word != 0 {
			node := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			r := &n.routers[node]
			if r.waitMask != 0 {
				return now
			}
			for wm := r.wireMask; wm != 0; wm &= wm - 1 {
				l := &r.links[bits.TrailingZeros8(wm)]
				// Wire region sorted by arriveAt: the head is the earliest.
				if t := l.q[l.head].arriveAt; t < next {
					next = t
				}
			}
		}
	}
	if next < now {
		next = now
	}
	return next
}

// Pending returns the number of messages in flight (injected, not yet
// delivered); zero means the network is quiet.
func (n *refNetwork[T]) Pending() int { return n.pending }
