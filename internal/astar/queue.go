package astar

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// item is one open-list entry: cell idx, its estimate f, and its place
// among the entries of equal f, sub = ^g<<32 | seq. The open list pops in
// one total order — f ascending, then g descending (deeper nodes and
// straighter paths first), then push order — which is (f, sub) ascending.
// seq is the search's push count at the push, so no two entries of one
// search tie.
type item struct {
	sub uint64
	idx int32
	f   int32
}

// subKey packs the within-f order of an entry pushed at path cost g as the
// search's seq-th push (0 <= g <= MaxCost).
func subKey(g int, seq uint32) uint64 { return uint64(^uint32(g))<<32 | uint64(seq) }

// g returns the path cost an entry was pushed at.
func (it item) g() int { return int(^uint32(it.sub >> 32)) }

const (
	// nslots is the bucket window: an entry of f within nslots of the
	// current f waits in slot f mod nslots, one farther out in overflow.
	nslots   = 1 << 12
	slotMask = nslots - 1
	// blockLen is the entries per storage block.
	blockLen = 32
)

// block is one unit of the slots' shared storage: a slot holds a chain of
// blocks, all full but the last.
type block struct {
	items [blockLen]item
	next  int32 // the next block of the chain, or of the free list
}

// slot is one f's chain of blocks; it is empty unless its bit in
// bucketQueue.used is set, and then tail holds n entries.
type slot struct {
	head, tail, n int32
}

// bucketQueue is the open list: a monotone bucket queue over f (Dial's
// algorithm, CACM 12(11), 1969). The Manhattan heuristic is consistent, so
// every push has f at least the current f, the f of the last pop (0
// before the first). The current f's entries sit in cur, sorted once when
// the f became current and worked as a stack from the end: a push at the
// current f expands the entry just popped, so it is deeper than every
// entry left, or as deep and later (a zero-cost step). The deeper ones go
// on top; the as-deep ones queue in fifo, one g at a time, or take an
// ordered insert into cur. Later f's wait unsorted in their slot's block
// chain, or in overflow past the window. Blocks are recycled through a
// free list within and across searches, so the queue holds about as many
// entries as its peak, plus one partly filled block per waiting slot.
type bucketQueue struct {
	f    int    // the current f
	n    int    // entries queued
	cur  []item // the current f's entries, the next to pop last
	fifo []item // zero-cost pushes at the current f, of one g, in push order
	head int    // fifo's first entry not yet popped

	slots  [nslots]slot
	used   [nslots / 64]uint64 // bit s: slot s holds entries
	blocks []*block
	free   int32 // first block of the free list, or -1

	over    []item // entries of f at or past f + nslots
	overMin int    // the least f in over

	end []int32 // countSort's scratch: the end of each g's run in cur
}

// reset empties the queue for a new search, returning every block the
// last search left queued to the free list.
func (q *bucketQueue) reset() {
	if q.blocks == nil {
		q.free = -1
	}
	for w, word := range &q.used {
		for ; word != 0; word &= word - 1 {
			q.release(w<<6 | bits.TrailingZeros64(word))
		}
		q.used[w] = 0
	}
	q.f, q.n = 0, 0
	q.cur, q.fifo, q.head, q.over = q.cur[:0], q.fifo[:0], 0, q.over[:0]
}

// push queues it; it.f must be at least the current f.
func (q *bucketQueue) push(it item) {
	q.n++
	switch d := int(it.f) - q.f; {
	case d == 0:
		q.pushCur(it)
	case d < nslots:
		q.pushSlot(it)
	default:
		if len(q.over) == 0 || int(it.f) < q.overMin {
			q.overMin = int(it.f)
		}
		q.over = append(q.over, it)
	}
}

// pushCur queues an entry of the current f where it pops: on top of cur
// when it pops before cur's top, else after every earlier entry of its g.
func (q *bucketQueue) pushCur(it item) {
	n := len(q.cur)
	if n == 0 || it.sub < q.cur[n-1].sub {
		q.cur = append(q.cur, it)
		return
	}
	if q.head == len(q.fifo) || q.fifo[q.head].sub>>32 == it.sub>>32 {
		if q.head > len(q.fifo)/2 { // drop the popped half: fifo stays O(entries queued)
			q.fifo = q.fifo[:copy(q.fifo, q.fifo[q.head:])]
			q.head = 0
		}
		q.fifo = append(q.fifo, it)
		return
	}
	i := n - 1
	for i > 0 && q.cur[i-1].sub < it.sub {
		i--
	}
	q.cur = slices.Insert(q.cur, i, it)
}

// pushSlot appends it to the chain of its f's slot.
func (q *bucketQueue) pushSlot(it item) {
	s := int(it.f) & slotMask
	sl := &q.slots[s]
	if w, b := s>>6, uint64(1)<<(s&63); q.used[w]&b == 0 {
		q.used[w] |= b
		k := q.alloc()
		*sl = slot{head: k, tail: k}
	} else if sl.n == blockLen {
		k := q.alloc()
		q.blocks[sl.tail].next = k
		sl.tail, sl.n = k, 0
	}
	q.blocks[sl.tail].items[sl.n] = it
	sl.n++
}

// pop removes and returns the first entry of the total order; the queue
// must not be empty.
func (q *bucketQueue) pop() item {
	if len(q.cur) == 0 && q.head == len(q.fifo) {
		q.advance()
	}
	q.n--
	n := len(q.cur) - 1
	if q.head < len(q.fifo) {
		if z := q.fifo[q.head]; n < 0 || z.sub < q.cur[n].sub {
			if q.head++; q.head == len(q.fifo) {
				q.fifo, q.head = q.fifo[:0], 0
			}
			return z
		}
	}
	it := q.cur[n]
	q.cur = q.cur[:n]
	return it
}

// advance makes the least waiting f current: it moves the overflow
// entries the window now reaches into their slots, then that f's slot
// into cur, sorted. Every overflow entry lies past every slot entry, so
// the least f is in overflow only when the slots are empty.
func (q *bucketQueue) advance() {
	f, ok := q.nextSlot()
	if !ok {
		f = q.overMin
	}
	q.f = f
	if len(q.over) > 0 && q.overMin-f < nslots {
		over := q.over
		q.over, q.overMin = over[:0], math.MaxInt
		for _, it := range over {
			if int(it.f)-f < nslots {
				q.pushSlot(it)
			} else {
				q.over = append(q.over, it)
				q.overMin = min(q.overMin, int(it.f))
			}
		}
	}
	s := f & slotMask
	sl := q.slots[s]
	lo, hi, n := math.MaxInt, 0, 0
	q.each(sl, func(items []item) {
		n += len(items)
		for _, it := range items {
			lo, hi = min(lo, it.g()), max(hi, it.g())
		}
	})
	if n < 16 || hi-lo >= 4*n {
		q.each(sl, func(items []item) { q.cur = append(q.cur, items...) })
		slices.SortFunc(q.cur, func(a, b item) int { return cmp.Compare(b.sub, a.sub) })
	} else {
		q.countSort(sl, lo, hi, n)
	}
	q.release(s)
	q.used[s>>6] &^= 1 << (s & 63)
}

// countSort fills cur with slot sl's n entries, of path costs lo..hi, in
// pop order from the end: a counting sort by g, stable in push order.
func (q *bucketQueue) countSort(sl slot, lo, hi, n int) {
	end := append(q.end[:0], make([]int32, hi-lo+1)...)
	q.each(sl, func(items []item) {
		for _, it := range items {
			end[it.g()-lo]++
		}
	})
	for k := 1; k < len(end); k++ {
		end[k] += end[k-1]
	}
	q.cur = slices.Grow(q.cur, n)[:n]
	// Deeper entries pop first, so they end up nearer the end; among equal
	// g the earlier push lands higher.
	q.each(sl, func(items []item) {
		for _, it := range items {
			k := &end[it.g()-lo]
			*k--
			q.cur[*k] = it
		}
	})
	q.end = end
}

// each calls fn on slot sl's entries block by block, in push order.
func (q *bucketQueue) each(sl slot, fn func([]item)) {
	for k := sl.head; ; {
		b := q.blocks[k]
		if k == sl.tail {
			fn(b.items[:sl.n])
			return
		}
		fn(b.items[:])
		k = b.next
	}
}

// nextSlot returns the least f held in a slot, if any slot holds one.
// Every slot entry lies within the window after the current f, whose slot
// is empty, so the slots in circular order from the current f's are in f
// order.
func (q *bucketQueue) nextSlot() (int, bool) {
	start := q.f & slotMask
	w := start >> 6
	word := q.used[w] &^ (1<<(start&63) - 1)
	for k := 0; k <= len(q.used); k++ {
		if word != 0 {
			s := w<<6 | bits.TrailingZeros64(word)
			return q.f + (s-start)&slotMask, true
		}
		w = (w + 1) % len(q.used)
		word = q.used[w]
	}
	return 0, false
}

// alloc returns a block off the free list, or a new one.
func (q *bucketQueue) alloc() int32 {
	if k := q.free; k >= 0 {
		q.free = q.blocks[k].next
		return k
	}
	q.blocks = append(q.blocks, new(block))
	return int32(len(q.blocks) - 1)
}

// release returns slot s's chain to the free list.
func (q *bucketQueue) release(s int) {
	sl := &q.slots[s]
	q.blocks[sl.tail].next = q.free
	q.free = sl.head
}
