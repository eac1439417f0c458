package lsq

import "repro/internal/core"

// Intrusive links name ops by flat per-op index + 1 (0 is none).  When
// grow relocates the block ring it remaps the wait links (remapLinks) and
// rebuilds the word indexes; squash and drain unlink an op before its slot
// is reused.

// age orders resident ops oldest first: the op's position in the window.
// Draining the head shifts every position alike, so an order kept by age
// survives it.
func (q *Queue) age(f int) int {
	return ((f/opStride-q.head)&q.ringMask())*opStride + f%opStride
}

// flatAt inverts age.
func (q *Queue) flatAt(a int) int {
	return ((q.head+a/opStride)&q.ringMask())*opStride + a%opStride
}

// keyAt returns the key of the resident op at flat index f.
func (q *Queue) keyAt(f int) core.DynRef {
	return core.DynRef{Seq: q.seqs[f/opStride], LSID: int8(f % opStride)}
}

// link is a node's place in a doubly linked list.  A list's head is the
// next field of its owner, and the first node's prev names the owner.
type link struct{ next, prev int32 }

// waitKind selects one of a store's wait lists.
type waitKind int

const (
	waitIssue waitKind = iota // loads parked by the issue policy until it executes
	waitCert                  // certification candidates it blocks
)

// waitOn adds the load at flat index fl to the list of the given kind of
// the store at fw.  Order within a list is immaterial: wakers process
// woken loads in park or arrival order, not list order.
func (q *Queue) waitOn(kind waitKind, fw, fl int) {
	h := q.wait[fw][kind].next
	q.wait[fl][kind] = link{next: h, prev: int32(fw + 1)}
	if h != 0 {
		q.wait[h-1][kind].prev = int32(fl + 1)
	}
	q.wait[fw][kind].next = int32(fl + 1)
}

// unwait removes the load at flat index fl from the list it is on, if any.
func (q *Queue) unwait(kind waitKind, fl int) {
	lk := &q.wait[fl][kind]
	if lk.prev == 0 {
		return
	}
	q.wait[lk.prev-1][kind].next = lk.next
	if lk.next != 0 {
		q.wait[lk.next-1][kind].prev = lk.prev
	}
	*lk = link{}
}

// remapLinks rewrites the wait-list links of the ops grow relocated: an
// index into the old ring, whose oldest block was at slot oldHead of
// oldCap, becomes one into the new ring, whose oldest block is at slot 0.
func (q *Queue) remapLinks(oldHead, oldCap int) {
	remap := func(v int32) int32 {
		if v == 0 {
			return 0
		}
		f := int(v - 1)
		return int32(((f/opStride-oldHead)&(oldCap-1))*opStride + f%opStride + 1)
	}
	for l := 0; l < q.n; l++ {
		for f := l * opStride; f < l*opStride+int(q.nops[l]); f++ {
			for kind := range q.wait[f] {
				lk := &q.wait[f][kind]
				lk.next, lk.prev = remap(lk.next), remap(lk.prev)
			}
		}
	}
}

// wordIndex is an exact hashed index from 8-byte address word to the ops
// whose byte range touches it.  A node is (flat index + 1)<<1 | j, the op's
// j-th word; the first node of a bucket's chain has prev −(bucket+1).
// Chains mix the words that share a bucket, so a walk compares each node's
// word, and run youngest op first, so a walk for the ops younger (or
// older) than some op stops (or starts) where it passes that op's age.
// Ops mostly arrive youngest first, so filing an op is usually O(1).
type wordIndex struct {
	heads []int32
	shift uint
}

func newWordIndex(buckets int) wordIndex {
	shift := uint(64)
	for n := buckets; n > 1; n >>= 1 {
		shift--
	}
	return wordIndex{heads: make([]int32, buckets), shift: shift}
}

func (x *wordIndex) bucket(w uint64) int { return int((w * 0x9e3779b97f4a7c15) >> x.shift) }

// chain returns the first node of word w's bucket; nodeOp walks it.
func (x *wordIndex) chain(w uint64) int32 { return x.heads[x.bucket(w)] }

// nodeFlat returns the flat index of a chain node's op.
func nodeFlat(node int32) int { return int(node>>1) - 1 }

// opWords returns the first and last 8-byte word of [addr, addr+size).
func opWords(addr uint64, size int) (w0, w1 uint64) {
	return addr >> 3, (addr + uint64(max(size, 1)-1)) >> 3
}

// index files the op at flat index f under the words of its current
// address.
func (q *Queue) index(x *wordIndex, f int) {
	w0, w1 := opWords(q.addr[f], int(q.size[f]))
	q.fileWord(x, f, 0, w0)
	if w1 != w0 {
		q.fileWord(x, f, 1, w1)
	}
}

func (q *Queue) fileWord(x *wordIndex, f, j int, w uint64) {
	b := x.bucket(w)
	node := int32(f+1)<<1 | int32(j)
	prev, next := -int32(b+1), x.heads[b]
	for a := q.age(f); next != 0 && q.age(nodeFlat(next)) > a; {
		prev = next
		next = q.word[nodeFlat(next)][next&1].next
	}
	q.word[f][j] = link{next: next, prev: prev}
	if prev < 0 {
		x.heads[b] = node
	} else {
		q.word[nodeFlat(prev)][prev&1].next = node
	}
	if next != 0 {
		q.word[nodeFlat(next)][next&1].prev = node
	}
}

// unindex removes the op at flat index f from x, if it is filed there.
func (q *Queue) unindex(x *wordIndex, f int) {
	for j := range q.word[f] {
		lk := &q.word[f][j]
		if lk.prev == 0 {
			continue
		}
		if lk.prev < 0 {
			x.heads[-lk.prev-1] = lk.next
		} else {
			q.word[nodeFlat(lk.prev)][lk.prev&1].next = lk.next
		}
		if lk.next != 0 {
			q.word[nodeFlat(lk.next)][lk.next&1].prev = lk.prev
		}
		*lk = link{}
	}
}

// indexed reports whether the op at flat index f is filed in an index.
func (q *Queue) indexed(f int) bool { return q.word[f][0].prev != 0 }

// nodeOp resolves a chain node to its op's flat index, reports whether the
// node is filed under word w (not a bucket neighbour), and returns the next
// node of the chain.
func (q *Queue) nodeOp(node int32, w uint64) (f int, match bool, next int32) {
	f = nodeFlat(node)
	w0, w1 := opWords(q.addr[f], int(q.size[f]))
	j := node & 1
	match = j == 0 && w0 == w || j == 1 && w1 == w
	return f, match, q.word[f][j].next
}
