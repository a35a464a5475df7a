package route

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refPQ is the container/heap queue the router used before rpq; it is the
// test oracle for rpq's tie order.
type refPQ []rpqItem

func (p refPQ) Len() int            { return len(p) }
func (p refPQ) Less(i, j int) bool  { return p[i].d < p[j].d }
func (p refPQ) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *refPQ) Push(x interface{}) { *p = append(*p, x.(rpqItem)) }
func (p *refPQ) Pop() interface{} {
	old := *p
	it := old[len(old)-1]
	*p = old[:len(old)-1]
	return it
}

// TestRPQMatchesContainerHeap runs random push/pop sequences with heavy
// label ties through rpq and container/heap: both must pop the identical
// (vertex, label) sequence, which is what keeps every route unchanged.
func TestRPQMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		var q rpq
		var ref refPQ
		labels := int32(1 + rng.Intn(8)) // few distinct labels: many ties
		ops := 1 + rng.Intn(2000)
		next := int32(0)
		for op := 0; op < ops; op++ {
			if len(q) == 0 || rng.Intn(3) != 0 {
				it := rpqItem{v: next, d: rng.Int31n(labels)}
				next++
				q.push(it)
				heap.Push(&ref, it)
				continue
			}
			got, want := q.pop(), heap.Pop(&ref).(rpqItem)
			if got != want {
				t.Fatalf("trial %d op %d: rpq popped %+v, container/heap %+v", trial, op, got, want)
			}
		}
		for len(q) > 0 {
			got, want := q.pop(), heap.Pop(&ref).(rpqItem)
			if got != want {
				t.Fatalf("trial %d drain: rpq popped %+v, container/heap %+v", trial, got, want)
			}
		}
		if ref.Len() != 0 {
			t.Fatalf("trial %d: container/heap kept %d items rpq did not", trial, ref.Len())
		}
	}
}
