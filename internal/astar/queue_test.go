package astar

import (
	"math/rand"
	"slices"
	"testing"
)

// queueLess is the open list's total order: f ascending, then g
// descending, then push sequence ascending.
func queueLess(a, b item) bool {
	if a.f != b.f {
		return a.f < b.f
	}
	if a.g() != b.g() {
		return a.g() > b.g()
	}
	return uint32(a.sub) < uint32(b.sub)
}

// queueRun drives one bucketQueue through searches of random pushes and
// pops and checks every pop against the least entry of a plain list.
type queueRun struct {
	t    *testing.T
	rng  *rand.Rand
	q    bucketQueue
	ref  []item
	seq  uint32
	last item // the last pop
}

func (r *queueRun) push(f, g int) {
	it := item{sub: subKey(g, r.seq), idx: int32(r.seq), f: int32(f)}
	r.seq++
	r.q.push(it)
	r.ref = append(r.ref, it)
}

func (r *queueRun) pop() {
	r.t.Helper()
	k := 0
	for i := range r.ref {
		if queueLess(r.ref[i], r.ref[k]) {
			k = i
		}
	}
	want := r.ref[k]
	r.ref = slices.Delete(r.ref, k, k+1)
	if got := r.q.pop(); got != want {
		r.t.Fatalf("pop = f %d g %d seq %d, want f %d g %d seq %d",
			got.f, got.g(), uint32(got.sub), want.f, want.g(), uint32(want.sub))
	}
	if r.q.n != len(r.ref) {
		r.t.Fatalf("queue holds %d entries, want %d", r.q.n, len(r.ref))
	}
	r.last = want
}

// successor draws an entry an expansion of the last pop could push: the
// same f at the same g (a zero-cost step), deeper or at any g; or a later
// f, near, past the bucket window or far past it.
func (r *queueRun) successor() (f, g int) {
	f0, g0 := int(r.last.f), r.last.g()
	switch r.rng.Intn(8) {
	case 0:
		return f0, g0
	case 1, 2:
		return f0, min(f0, g0+1+r.rng.Intn(4))
	case 3:
		return f0, r.rng.Intn(f0 + 1)
	case 4, 5:
		f = f0 + 1 + r.rng.Intn(12)
	case 6:
		f = f0 + nslots - 8 + r.rng.Intn(16)
	default:
		f = f0 + r.rng.Intn(5*nslots)
	}
	return f, min(f, g0+r.rng.Intn(f-f0+3))
}

// search runs one search: sources pushed in any f order, then expansions
// until the queue is empty or, with leave set, it stops with entries left.
func (r *queueRun) search(leave bool) {
	r.q.reset()
	r.ref, r.last = r.ref[:0], item{}
	for range 1 + r.rng.Intn(4) {
		f := r.rng.Intn(3 * nslots)
		if r.rng.Intn(3) == 0 {
			f = r.rng.Intn(8)
		}
		r.push(f, r.rng.Intn(f+1))
	}
	for steps := 0; len(r.ref) > 0; steps++ {
		if leave && steps == 100 {
			return
		}
		r.pop()
		if steps < 150 {
			for range r.rng.Intn(5) {
				r.push(r.successor())
			}
		}
	}
}

// TestBucketQueueOrder checks that the bucket queue pops exactly the total
// order: equal f and g, zero-cost steps, sources below an earlier source's
// f, entries past the bucket window, and searches that end with entries
// left in the queue, whose blocks the next search reuses.
func TestBucketQueueOrder(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := &queueRun{t: t, rng: rand.New(rand.NewSource(seed))}
		for k := range 4 {
			r.search(k%2 == 0)
		}
	}
}

// TestBucketQueueSorted pushes a batch of entries of a few f values and
// many equal (f, g) pairs before any pop: the pops must come out in the
// order a sort under the total order gives.
func TestBucketQueueSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q bucketQueue
	for round := range 3 {
		q.reset()
		var want []item
		for seq := range 5000 {
			f := rng.Intn(6) * (1 + round*nslots/2)
			it := item{sub: subKey(rng.Intn(min(f, 3)+1), uint32(seq)), f: int32(f)}
			q.push(it)
			want = append(want, it)
		}
		slices.SortFunc(want, func(a, b item) int {
			if queueLess(a, b) {
				return -1
			}
			return 1
		})
		for i, w := range want {
			if got := q.pop(); got != w {
				t.Fatalf("round %d pop %d = f %d sub %x, want f %d sub %x", round, i, got.f, got.sub, w.f, w.sub)
			}
		}
		if q.n != 0 {
			t.Fatalf("round %d: %d entries left", round, q.n)
		}
	}
}

// TestBucketQueueRecyclesBlocks checks that the slot storage stays at the
// size one search needs: the blocks a pop frees, and those a search leaves
// queued, are reused by the next search.
func TestBucketQueueRecyclesBlocks(t *testing.T) {
	var q bucketQueue
	fill := func() {
		q.reset()
		for seq := range 10 * blockLen {
			q.push(item{sub: subKey(0, uint32(seq)), f: int32(1 + seq%3)})
		}
		q.pop()
	}
	fill()
	blocks := len(q.blocks)
	for range 10 {
		fill()
	}
	if len(q.blocks) != blocks {
		t.Fatalf("block arena grew from %d to %d over searches of one size", blocks, len(q.blocks))
	}
}
