// Package route is a full-design track router standing in for the
// commercial detailed router that produced the paper's routed layouts. It
// routes every net of a placed design on the 3-D track grid (unidirectional
// layers, wire cost 1, via cost 4) with PathFinder-style negotiated
// congestion: per-net sequential Steiner growth by multi-source Dijkstra,
// then rip-up-and-reroute of conflicted nets under growing history costs
// until the solution is vertex-disjoint.
//
// The output is the substrate for clip extraction (package clip/extract):
// what matters is realistic local congestion and boundary-crossing patterns,
// not sign-off DRC cleanliness.
//
// Determinism contract: the route of every net is a pure function of the
// placement and options. Dijkstra's queue (rpq) is a concrete binary heap
// whose push and pop run container/heap's exact up/down sift, so labels that
// tie pop in container/heap's order and every predecessor pointer, route and
// clip extracted from it is the same as with container/heap. A bucket queue
// or a decrease-key heap would pop ties in another order and change the
// routes, which is why neither is used. Labels are int32; Route returns an
// error rather than wrapping when a search window's label bound could reach
// math.MaxInt32.
package route

import (
	"fmt"
	"math"
	"slices"

	"optrouter/internal/geom"
	"optrouter/internal/place"
)

// Step is one routing-graph move: a unit wire step or a via between
// adjacent layers, in track coordinates.
type Step struct {
	FromX, FromY, FromZ int
	ToX, ToY, ToZ       int
}

// IsVia reports whether the step changes layers.
func (s Step) IsVia() bool { return s.FromZ != s.ToZ }

// RoutedNet is one net's realized route.
type RoutedNet struct {
	NetIdx int
	Steps  []Step
}

// Wirelength counts wire steps.
func (r *RoutedNet) Wirelength() int {
	n := 0
	for _, s := range r.Steps {
		if !s.IsVia() {
			n++
		}
	}
	return n
}

// Vias counts via steps.
func (r *RoutedNet) Vias() int { return len(r.Steps) - r.Wirelength() }

// Result is a routed design.
type Result struct {
	P          *place.Placement
	NX, NY, NZ int
	MinLayer   int
	Nets       []RoutedNet
	// Conflicts counts vertices still shared by multiple nets after the
	// iteration budget (0 = fully legal).
	Conflicts int
	Iters     int
}

// Options configures the router.
type Options struct {
	// Layers is the metal stack depth (default 8).
	Layers int
	// MinLayer is the lowest routing layer, 0-based (default 1 = M2; the
	// paper does not route on M1).
	MinLayer int
	// MaxIters bounds rip-up passes (default 12).
	MaxIters int
	// ViaCost is the via cost (default 4, the paper's weighting).
	ViaCost int
	// Margin is the search-window margin around a net's bounding box in
	// tracks (default 14).
	Margin int
}

func (o Options) withDefaults() Options {
	if o.Layers == 0 {
		o.Layers = 8
	}
	if o.MinLayer == 0 {
		o.MinLayer = 1
	}
	if o.MaxIters == 0 {
		o.MaxIters = 12
	}
	if o.ViaCost == 0 {
		o.ViaCost = 4
	}
	if o.Margin == 0 {
		o.Margin = 14
	}
	return o
}

type router struct {
	nx, ny, nz int
	minLayer   int
	viaCost    int32
	margin     int

	owner    []int32 // vertex -> net or -1
	pinOwner []int32 // vertex -> owning net's pin metal, or -1
	hist     []int32 // history congestion
	maxHist  int32   // largest hist entry

	dist []int32
	ver  []int32
	prev []int32 // packed predecessor vertex (+1), 0 = none
	cur  int32

	// Search scratch reused by every Dijkstra run.
	q     rpq
	seeds []int32
}

func (r *router) id(x, y, z int) int32 { return int32((z*r.ny+y)*r.nx + x) }
func (r *router) xyz(v int32) (int, int, int) {
	x := int(v) % r.nx
	y := (int(v) / r.nx) % r.ny
	z := int(v) / (r.nx * r.ny)
	return x, y, z
}

// rpq is Dijkstra's min-queue of (vertex, label) items. push and pop sift
// exactly as container/heap's Push and Pop do (up, and swap-last-then-down),
// moving a hole instead of swapping, so items with equal labels pop in the
// same order.
type rpq []rpqItem

type rpqItem struct {
	v int32
	d int32
}

func (p *rpq) push(it rpqItem) {
	q := append(*p, it)
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2
		if it.d >= q[i].d {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = it
	*p = q
}

func (p *rpq) pop() rpqItem {
	q := *p
	n := len(q) - 1
	top, it := q[0], q[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].d < q[j].d {
			j = j2
		}
		if it.d <= q[j].d {
			break
		}
		q[i] = q[j]
		i = j
	}
	q[i] = it
	*p = q[:n]
	return top
}

// Route routes all nets of the placement.
func Route(p *place.Placement, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	nx, ny := p.DieTracks()
	nz := opt.Layers
	if nx <= 0 || ny <= 0 {
		return nil, fmt.Errorf("route: empty die")
	}
	if opt.ViaCost >= math.MaxInt32 {
		return nil, fmt.Errorf("route: via cost %d exceeds the int32 label range", opt.ViaCost)
	}
	r := &router{
		nx: nx, ny: ny, nz: nz,
		minLayer: opt.MinLayer,
		viaCost:  int32(opt.ViaCost),
		margin:   opt.Margin,
		owner:    make([]int32, nx*ny*nz),
		pinOwner: make([]int32, nx*ny*nz),
		hist:     make([]int32, nx*ny*nz),
		dist:     make([]int32, nx*ny*nz),
		ver:      make([]int32, nx*ny*nz),
		prev:     make([]int32, nx*ny*nz),
	}
	for i := range r.owner {
		r.owner[i] = -1
		r.pinOwner[i] = -1
	}

	nl := p.NL
	res := &Result{P: p, NX: nx, NY: ny, NZ: nz, MinLayer: opt.MinLayer}
	res.Nets = make([]RoutedNet, len(nl.Nets))

	// Terminal vertices per net (on MinLayer).
	terms := make([][][]int32, len(nl.Nets)) // [net][pin][]vertex
	for i := range nl.Nets {
		n := &nl.Nets[i]
		var pins [][]int32
		addPin := func(aps []geom.Point) {
			var vs []int32
			for _, ap := range aps {
				if ap.X >= 0 && ap.X < nx && ap.Y >= 0 && ap.Y < ny {
					vs = append(vs, r.id(ap.X, ap.Y, opt.MinLayer))
				}
			}
			pins = append(pins, vs)
		}
		addPin(p.PinAPs(n.Driver))
		for _, s := range n.Sinks {
			addPin(p.PinAPs(s))
		}
		terms[i] = pins
		// Pin metal blocks the fabric for every other net, matching the
		// switchbox formulation's access-point ownership (and real
		// routers' pin avoidance).
		for _, pv := range pins {
			for _, v := range pv {
				r.pinOwner[v] = int32(i)
			}
		}
	}

	needRoute := make([]bool, len(nl.Nets))
	for i := range needRoute {
		needRoute[i] = true
	}
	// failed marks nets routeNet could not connect. They are retried next
	// pass; an empty route that routeNet did find (no sinks, or every sink
	// already touching the driver) is final.
	failed := make([]bool, len(nl.Nets))

	for iter := 0; iter < opt.MaxIters; iter++ {
		res.Iters = iter + 1
		present := int64(30 + 25*iter)
		for i := range nl.Nets {
			if !needRoute[i] {
				continue
			}
			r.clearNet(int32(i), &res.Nets[i])
			steps, ok, err := r.routeNet(int32(i), terms[i], present)
			if err != nil {
				return nil, fmt.Errorf("route: net %s: %w", nl.Nets[i].Name, err)
			}
			failed[i] = !ok
			res.Nets[i] = RoutedNet{NetIdx: i, Steps: steps}
			r.claim(int32(i), steps)
		}
		// Conflict scan.
		conflicted := r.findConflicts(res.Nets)
		done := true
		for i := range needRoute {
			needRoute[i] = conflicted[i] || failed[i]
			done = done && !needRoute[i]
		}
		if done {
			res.Conflicts = 0
			return res, nil
		}
	}
	// Count remaining conflicted vertices.
	res.Conflicts = r.countConflictVerts(res.Nets)
	return res, nil
}

// clearNet removes a net's prior claims.
func (r *router) clearNet(net int32, old *RoutedNet) {
	for _, s := range old.Steps {
		for _, v := range []int32{r.id(s.FromX, s.FromY, s.FromZ), r.id(s.ToX, s.ToY, s.ToZ)} {
			if r.owner[v] == net {
				r.owner[v] = -1
			}
		}
	}
	old.Steps = nil
}

// claim marks route vertices as owned (first-come; conflicts are detected in
// the scan phase).
func (r *router) claim(net int32, steps []Step) {
	for _, s := range steps {
		for _, v := range []int32{r.id(s.FromX, s.FromY, s.FromZ), r.id(s.ToX, s.ToY, s.ToZ)} {
			if r.owner[v] == -1 {
				r.owner[v] = net
			}
		}
	}
}

// routeNet grows a Steiner tree: multi-source Dijkstra from the current tree
// to each remaining pin, nearest-first. ok is false when some pin cannot be
// reached inside the search window.
func (r *router) routeNet(net int32, pins [][]int32, present int64) (steps []Step, ok bool, err error) {
	if len(pins) < 2 {
		return nil, true, nil
	}
	// Search window: bbox of all terminals plus margin.
	x1, y1 := r.nx, r.ny
	x2, y2 := 0, 0
	for _, pv := range pins {
		for _, v := range pv {
			x, y, _ := r.xyz(v)
			x1, y1 = geom.Min(x1, x), geom.Min(y1, y)
			x2, y2 = geom.Max(x2, x), geom.Max(y2, y)
		}
	}
	x1 = geom.Max(0, x1-r.margin)
	y1 = geom.Max(0, y1-r.margin)
	x2 = geom.Min(r.nx-1, x2+r.margin)
	y2 = geom.Min(r.ny-1, y2+r.margin)

	// A shortest path visits each window vertex at most once, and no step
	// costs more than a via plus the largest history plus the present
	// penalty, so every label stays below this bound.
	verts := int64(x2-x1+1) * int64(y2-y1+1) * int64(r.nz-r.minLayer)
	if bound := verts * (int64(r.viaCost) + 1 + int64(r.maxHist) + present); bound >= math.MaxInt32 {
		return nil, false, fmt.Errorf("label bound %d of a %dx%dx%d window reaches the int32 limit",
			bound, x2-x1+1, y2-y1+1, r.nz-r.minLayer)
	}
	pres := int32(present)

	tree := map[int32]bool{}
	for _, v := range pins[0] {
		tree[v] = true
	}
	// Copy: the nearest-first removal below must not disturb the caller's
	// pin lists (nets are rerouted across rip-up iterations).
	remaining := append([][]int32{}, pins[1:]...)

	for len(remaining) > 0 {
		// Dijkstra from tree to the nearest remaining pin. Seed in sorted
		// vertex order so tie-breaking (and thus the whole route) is
		// deterministic. Every seed has label 0, so the seeded queue is
		// already a heap.
		r.cur++
		r.seeds = r.seeds[:0]
		for v := range tree {
			r.seeds = append(r.seeds, v)
		}
		slices.Sort(r.seeds)
		r.q = r.q[:0]
		for _, v := range r.seeds {
			r.dist[v] = 0
			r.ver[v] = r.cur
			r.prev[v] = 0
			r.q = append(r.q, rpqItem{v, 0})
		}

		targetOf := map[int32]int{}
		for pi, pv := range remaining {
			for _, v := range pv {
				targetOf[v] = pi
			}
		}

		foundPin := -1
		var foundV int32
		for len(r.q) > 0 {
			it := r.q.pop()
			if r.ver[it.v] == r.cur && it.d > r.dist[it.v] {
				continue
			}
			if pi, ok := targetOf[it.v]; ok {
				foundPin, foundV = pi, it.v
				break
			}
			x, y, z := r.xyz(it.v)
			r.expand(net, it.v, x, y, z, it.d, pres, x1, y1, x2, y2)
		}
		if foundPin < 0 {
			return nil, false, nil
		}
		// Trace back to tree, claiming vertices into the tree.
		v := foundV
		for r.prev[v] != 0 {
			u := r.prev[v] - 1
			ux, uy, uz := r.xyz(u)
			vx, vy, vz := r.xyz(v)
			steps = append(steps, Step{ux, uy, uz, vx, vy, vz})
			tree[v] = true
			v = u
		}
		tree[v] = true
		// Also add the whole traced path... (vertices added above). Remove
		// the satisfied pin.
		remaining = append(remaining[:foundPin], remaining[foundPin+1:]...)
	}
	return steps, true, nil
}

// expand relaxes neighbors of vertex v.
func (r *router) expand(net, v int32, x, y, z int, d, present int32, x1, y1, x2, y2 int) {
	if z%2 == 0 { // horizontal layer
		if x > x1 {
			r.relax(net, v, r.id(x-1, y, z), d+1, present)
		}
		if x < x2 {
			r.relax(net, v, r.id(x+1, y, z), d+1, present)
		}
	} else {
		if y > y1 {
			r.relax(net, v, r.id(x, y-1, z), d+1, present)
		}
		if y < y2 {
			r.relax(net, v, r.id(x, y+1, z), d+1, present)
		}
	}
	if z > r.minLayer {
		r.relax(net, v, r.id(x, y, z-1), d+r.viaCost, present)
	}
	if z < r.nz-1 {
		r.relax(net, v, r.id(x, y, z+1), d+r.viaCost, present)
	}
}

// relax offers neighbor nv of v the label d (v's label plus the step cost)
// plus nv's congestion costs.
func (r *router) relax(net, v, nv, d, present int32) {
	if po := r.pinOwner[nv]; po != -1 && po != net {
		return // another net's pin metal is a hard block
	}
	cost := d + r.hist[nv]
	if o := r.owner[nv]; o != -1 && o != net {
		cost += present
	}
	if r.ver[nv] != r.cur || cost < r.dist[nv] {
		r.ver[nv] = r.cur
		r.dist[nv] = cost
		r.prev[nv] = v + 1
		r.q.push(rpqItem{nv, cost})
	}
}

// findConflicts returns per-net flags for nets sharing vertices, and raises
// the history cost of every shared vertex.
func (r *router) findConflicts(nets []RoutedNet) []bool {
	users := map[int32]int32{} // vertex -> first net
	conflicted := make([]bool, len(nets))
	for i := range nets {
		seen := map[int32]bool{}
		for _, s := range nets[i].Steps {
			for _, v := range []int32{r.id(s.FromX, s.FromY, s.FromZ), r.id(s.ToX, s.ToY, s.ToZ)} {
				if seen[v] {
					continue
				}
				seen[v] = true
				if first, ok := users[v]; ok && first != int32(i) {
					conflicted[first] = true
					conflicted[i] = true
					r.hist[v] += 6
					r.maxHist = max(r.maxHist, r.hist[v])
				} else {
					users[v] = int32(i)
				}
			}
		}
	}
	return conflicted
}

func (r *router) countConflictVerts(nets []RoutedNet) int {
	users := map[int32]int32{}
	n := 0
	for i := range nets {
		seen := map[int32]bool{}
		for _, s := range nets[i].Steps {
			for _, v := range []int32{r.id(s.FromX, s.FromY, s.FromZ), r.id(s.ToX, s.ToY, s.ToZ)} {
				if seen[v] {
					continue
				}
				seen[v] = true
				if first, ok := users[v]; ok && first != int32(i) {
					n++
				} else {
					users[v] = int32(i)
				}
			}
		}
	}
	return n
}

// WirelengthVias sums metrics over all nets.
func (res *Result) WirelengthVias() (wl, vias int) {
	for i := range res.Nets {
		wl += res.Nets[i].Wirelength()
		vias += res.Nets[i].Vias()
	}
	return
}
