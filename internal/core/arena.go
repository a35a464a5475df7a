package core

// SteinerArena is the reusable backing storage for the exact Steiner
// arborescence kernel. One solve of steinerTree needs (2^t)x|V| dynamic
// programming matrices, a priority queue, ban vectors and reconstruction
// scratch; a branch-and-bound search performs thousands of such solves on
// the same graph, and a rule sweep repeats the search eleven times per clip.
// The arena amortizes all of that storage: matrices are flat arrays tagged
// with an epoch stamp per cell (bumping the epoch invalidates every cell in
// O(1), so no per-solve clearing), the Dijkstra queue keeps its buckets, and
// ban slices come from a cursor-reset pool.
//
// An arena is NOT safe for concurrent use: share it only across solves that
// run sequentially (the per-net solves inside one SolveBnB, or the eleven
// rule configurations of one clip in a sweep worker).
type SteinerArena struct {
	// Dreyfus-Wagner tables, flat (mask*nV + v) layout. A cell is valid only
	// when stamp[cell] == epoch; everything else reads as +infinity.
	dp    []int64
	par   []parentAction
	stamp []uint32
	epoch uint32

	// rowCnt[mask] counts valid cells of a mask row, letting subset merges
	// skip rows that cannot contribute.
	rowCnt []int32

	// Monotone bucket (Dial's) queue for the per-mask Dijkstra relaxation,
	// plus a pooled binary heap fallback for solves whose arc costs, raised
	// by the heuristic's congestion penalties, are too large for bucketing.
	buckets [][]int32
	heap    []pqItem

	// Reconstruction scratch: the produced arc list (returned to the caller,
	// valid until the next solve on this arena), the DFS stack, and per-arc
	// dedup stamps.
	arcBuf    []int32
	stack     []dwFrame
	seen      []uint32
	seenEpoch uint32

	// Ban-vector pool: getBans hands out slices; resetBans makes every
	// slice reusable again (callers must have dropped them first).
	bans    [][]bool
	banUsed int
}

// NewSteinerArena returns an empty arena; storage grows on first use and is
// retained across solves.
func NewSteinerArena() *SteinerArena { return &SteinerArena{} }

// dwFrame is one (mask, vertex) pair of the reconstruction walk.
type dwFrame struct {
	mask int
	v    int32
}

// prepare sizes the tables for a solve with `rows` mask rows over nV
// vertices and opens a fresh epoch, invalidating all cells.
func (a *SteinerArena) prepare(rows, nV int) {
	cells := rows * nV
	if cap(a.dp) < cells {
		a.dp = make([]int64, cells)
		a.par = make([]parentAction, cells)
		a.stamp = make([]uint32, cells)
		a.epoch = 0
	}
	a.dp = a.dp[:cells]
	a.par = a.par[:cells]
	a.stamp = a.stamp[:cells]
	if cap(a.rowCnt) < rows {
		a.rowCnt = make([]int32, rows)
	}
	a.rowCnt = a.rowCnt[:rows]
	for i := range a.rowCnt {
		a.rowCnt[i] = 0
	}
	a.epoch++
	if a.epoch == 0 { // wrapped: stamps may alias, clear them once
		for i := range a.stamp {
			a.stamp[i] = 0
		}
		a.epoch = 1
	}
}

// prepareSeen opens a fresh dedup epoch over nArcs arcs.
func (a *SteinerArena) prepareSeen(nArcs int) {
	if cap(a.seen) < nArcs {
		a.seen = make([]uint32, nArcs)
		a.seenEpoch = 0
	}
	a.seen = a.seen[:nArcs]
	a.seenEpoch++
	if a.seenEpoch == 0 {
		for i := range a.seen {
			a.seen[i] = 0
		}
		a.seenEpoch = 1
	}
}

// bucketFor returns bucket idx, growing the bucket list as needed.
func (a *SteinerArena) bucketFor(idx int) *[]int32 {
	for len(a.buckets) <= idx {
		a.buckets = append(a.buckets, nil)
	}
	return &a.buckets[idx]
}

// getBans returns an n-length all-false ban vector from the pool.
func (a *SteinerArena) getBans(n int) []bool {
	if a.banUsed < len(a.bans) && cap(a.bans[a.banUsed]) >= n {
		b := a.bans[a.banUsed][:n]
		a.banUsed++
		for i := range b {
			b[i] = false
		}
		return b
	}
	b := make([]bool, n)
	if a.banUsed < len(a.bans) {
		a.bans[a.banUsed] = b
	} else {
		a.bans = append(a.bans, b)
	}
	a.banUsed++
	return b
}

// resetBans returns every pooled ban vector to the free list. Callers must
// no longer hold slices handed out before the reset.
func (a *SteinerArena) resetBans() { a.banUsed = 0 }
