package drc

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"optrouter/internal/clip"
	"optrouter/internal/rgraph"
	"optrouter/internal/tech"
)

// TestCheckerMatchesReference is the Checker's differential harness: on
// fuzz clips under all eleven rules, with and without shaped vias, it feeds
// one reused Checker and the map-based reference oracle the same
// deliberately conflicting routings and requires equal violation lists,
// order included (strong branching reads them in order). The routings are
// the nets' independent minimum-cost trees — what a CDC-BnB node checks —,
// every pass of a negotiated-congestion reroute that starts from them, and
// random mutations of those (dropped, duplicated and foreign arcs) that
// reach the disconnection and double-entry checks.
func TestCheckerMatchesReference(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:3]
	}
	kinds := map[Kind]int{}
	for _, seed := range seeds {
		opt := clip.DefaultSynth(seed)
		opt.NX, opt.NY = 5, 6
		opt.NumNets = 4 + int(seed%3)
		c := clip.Synthesize(opt)
		for _, rule := range tech.StandardRules() {
			for _, shaped := range []bool{false, true} {
				ropt := rgraph.Options{Rule: rule}
				if shaped {
					ropt.ViaShapes = []tech.ViaShape{tech.SingleVia, tech.HBarVia, tech.VBarVia, tech.SquareVia}
				}
				g, err := rgraph.Build(c, ropt)
				if err != nil {
					t.Fatal(err)
				}
				ck := NewChecker(g)
				rng := rand.New(rand.NewSource(seed*131 + int64(len(rule.Name))))
				for i, routes := range fuzzRoutings(g, rng) {
					name := fmt.Sprintf("seed%d-%s-shaped%v-routing%d", seed, rule.Name, shaped, i)
					want := refCheck(g, routes)
					got := ck.Check(routes)
					if len(got) != len(want) {
						t.Fatalf("%s: %d violations, reference %d:\n got %v\nwant %v", name, len(got), len(want), got, want)
					}
					for j := range want {
						if !reflect.DeepEqual(got[j], want[j]) {
							t.Fatalf("%s: violation %d is %+v, reference %+v", name, j, got[j], want[j])
						}
						kinds[want[j].Kind]++
					}
					if e, r := EOLs(g, routes), refEOLs(g, routes); len(e) != len(r) || (len(e) > 0 && !reflect.DeepEqual(e, r)) {
						t.Fatalf("%s: EOLs %v, reference %v", name, e, r)
					}
				}
			}
		}
	}
	for _, k := range []Kind{ArcConflict, VertexConflict, Disconnected, ViaAdjacency, ViaShapeBlock, SADPEOL} {
		if kinds[k] == 0 {
			t.Errorf("corpus never produced a %s violation", k)
		}
	}
	t.Logf("violations compared by kind: %v", kinds)
}

// TestCheckerAllocs pins the Checker's scratch reuse: once a routing has
// grown its arrays and buffers, checking it again allocates nothing.
func TestCheckerAllocs(t *testing.T) {
	rule, _ := tech.RuleByName("RULE8")
	opt := clip.DefaultSynth(3)
	opt.NX, opt.NY = 5, 6
	g, err := rgraph.Build(clip.Synthesize(opt), rgraph.Options{Rule: rule})
	if err != nil {
		t.Fatal(err)
	}
	routings := fuzzRoutings(g, rand.New(rand.NewSource(3)))
	ck := NewChecker(g)
	for _, routes := range routings {
		ck.Check(routes)
	}
	allocs := testing.AllocsPerRun(8, func() {
		for _, routes := range routings {
			ck.Check(routes)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state Check allocates %.1f objects per %d routings, want 0", allocs, len(routings))
	}
}

// TestCheckerStampWrap runs checks across the stamp counter's wraparound:
// every check must still match the reference, and the counter must restart
// before a check could reissue a stamp.
func TestCheckerStampWrap(t *testing.T) {
	rule, _ := tech.RuleByName("RULE8")
	opt := clip.DefaultSynth(5)
	opt.NX, opt.NY = 5, 6
	g, err := rgraph.Build(clip.Synthesize(opt), rgraph.Options{Rule: rule})
	if err != nil {
		t.Fatal(err)
	}
	ck := NewChecker(g)
	for i, routes := range fuzzRoutings(g, rand.New(rand.NewSource(5))) {
		ck.tick = math.MaxUint32 - uint32(i)
		before := ck.tick
		got, want := ck.Check(routes), refCheck(g, routes)
		if !reflect.DeepEqual(got, want) && (len(got) > 0 || len(want) > 0) {
			t.Fatalf("routing %d at stamp %d: checker %v, reference %v", i, before, got, want)
		}
		if ck.tick < before && ck.tick > uint32(4*len(routes)+5) {
			t.Fatalf("routing %d: %d stamps drawn after the restart", i, ck.tick)
		}
	}
}

// fuzzRoutings returns conflicting routings of g: the independent per-net
// minimum-cost trees, the routings after each of six negotiated rerouting
// passes, and one random mutation of each.
func fuzzRoutings(g *rgraph.Graph, rng *rand.Rand) [][][]int32 {
	nNets := len(g.Source)
	penalty := make([]int64, len(g.Arcs))
	routes := make([][]int32, nNets)
	for k := range routes {
		routes[k] = minTree(g, k, penalty)
	}
	out := [][][]int32{cloneRoutes(routes)}
	for pass := 1; pass <= 6; pass++ {
		present := int64(8 * pass)
		for k := range routes {
			clear(penalty)
			for k2, arcs := range routes {
				if k2 == k {
					continue
				}
				for _, a := range arcs {
					penalty[a] += present
					penalty[g.Pair[a]] += present
					for _, in := range g.In[g.Arcs[a].To] {
						penalty[in] += present / 2
					}
				}
			}
			if arcs := minTree(g, k, penalty); arcs != nil {
				routes[k] = arcs
			}
		}
		out = append(out, cloneRoutes(routes))
	}
	for _, base := range out[:len(out):len(out)] {
		out = append(out, mutate(g, cloneRoutes(base), rng))
	}
	return out
}

func cloneRoutes(routes [][]int32) [][]int32 {
	out := make([][]int32, len(routes))
	for k, arcs := range routes {
		out[k] = append([]int32(nil), arcs...)
	}
	return out
}

// mutate applies one random edit to one net: drop an arc, duplicate one, or
// add an arc another net uses.
func mutate(g *rgraph.Graph, routes [][]int32, rng *rand.Rand) [][]int32 {
	k := rng.Intn(len(routes))
	arcs := routes[k]
	switch op := rng.Intn(3); {
	case op == 0 && len(arcs) > 0:
		i := rng.Intn(len(arcs))
		routes[k] = append(arcs[:i], arcs[i+1:]...)
	case op == 1 && len(arcs) > 0:
		routes[k] = append(arcs, arcs[rng.Intn(len(arcs))])
	default:
		other := routes[rng.Intn(len(routes))]
		if len(other) > 0 {
			routes[k] = append(arcs, other[rng.Intn(len(other))])
		} else {
			routes[k] = append(arcs, int32(rng.Intn(len(g.Arcs))))
		}
	}
	return routes
}

// minTree returns a minimum-cost arborescence of net k under the arc costs
// plus penalty, avoiding other nets' terminals and pins: a shortest path for
// one sink, the best meeting vertex for two, a union of shortest paths
// beyond. It returns nil when a sink is unreachable.
func minTree(g *rgraph.Graph, k int, penalty []int64) []int32 {
	allowed := func(v int32) bool {
		if g.IsGrid(v) {
			return g.PinOwner[v] < 0 || g.PinOwner[v] == int32(k)
		}
		for j, s := range g.Source {
			if j == k {
				continue
			}
			if s == v {
				return false
			}
			for _, t := range g.SinkVerts[j] {
				if t == v {
					return false
				}
			}
		}
		return true
	}
	cost := func(a int32) int64 { return int64(g.Arcs[a].Cost) + penalty[a] }
	sinks := g.SinkVerts[k]
	fromSrc, inArc := shortest(g, g.Source[k], false, allowed, cost)
	if len(sinks) != 2 {
		var arcs []int32
		seen := map[int32]bool{}
		for _, t := range sinks {
			if fromSrc[t] < 0 {
				return nil
			}
			for v := t; inArc[v] >= 0; v = g.Arcs[inArc[v]].From {
				if !seen[inArc[v]] {
					seen[inArc[v]] = true
					arcs = append(arcs, inArc[v])
				}
			}
		}
		return arcs
	}
	to1, out1 := shortest(g, sinks[0], true, allowed, cost)
	to2, out2 := shortest(g, sinks[1], true, allowed, cost)
	meet, best := int32(-1), int64(-1)
	for v := range fromSrc {
		if fromSrc[v] < 0 || to1[v] < 0 || to2[v] < 0 {
			continue
		}
		if d := fromSrc[v] + to1[v] + to2[v]; best < 0 || d < best {
			meet, best = int32(v), d
		}
	}
	if meet < 0 {
		return nil
	}
	var arcs []int32
	for v := meet; inArc[v] >= 0; v = g.Arcs[inArc[v]].From {
		arcs = append(arcs, inArc[v])
	}
	for _, outArc := range [][]int32{out1, out2} {
		for v := meet; outArc[v] >= 0; v = g.Arcs[outArc[v]].To {
			arcs = append(arcs, outArc[v])
		}
	}
	return arcs
}

// shortest runs Dijkstra from root over allowed vertices — forward along
// Out arcs, or backward along In arcs when reverse — and returns the
// distances (-1 = unreachable) and each vertex's tree arc (-1 at the root).
func shortest(g *rgraph.Graph, root int32, reverse bool, allowed func(int32) bool, cost func(int32) int64) ([]int64, []int32) {
	dist := make([]int64, g.NumVerts)
	tree := make([]int32, g.NumVerts)
	done := make([]bool, g.NumVerts)
	for v := range dist {
		dist[v], tree[v] = -1, -1
	}
	dist[root] = 0
	for {
		u := int32(-1)
		for v := range dist {
			if !done[v] && dist[v] >= 0 && (u < 0 || dist[v] < dist[u]) {
				u = int32(v)
			}
		}
		if u < 0 {
			return dist, tree
		}
		done[u] = true
		adj := g.Out[u]
		if reverse {
			adj = g.In[u]
		}
		for _, a := range adj {
			w := g.Arcs[a].To
			if reverse {
				w = g.Arcs[a].From
			}
			if done[w] || !allowed(w) {
				continue
			}
			if d := dist[u] + cost(a); dist[w] < 0 || d < dist[w] {
				dist[w], tree[w] = d, a
			}
		}
	}
}

// TestCheckerOrdersEOLPairsBySide covers the one tie compareViolations
// breaks past the old sort key: two SADP violations between the same nets
// and vertices that differ only in an EOL side. Net 1 branches at (1,1,2)
// off a via into both wire sides, which realizes an EOL on each side there.
// Net 0's lo-side EOL at (1,2,2) conflicts with both; it is checked first
// and finds the hi-side EOL (a facing spot) before the lo-side one (a
// same-direction spot), so only the side comparison restores the
// reference order.
func TestCheckerOrdersEOLPairsBySide(t *testing.T) {
	g := grid(t, tech.RuleConfig{SADPMinLayer: 2})
	branch := append(path(t, g, [3]int{1, 1, 1}, [3]int{1, 1, 2}, [3]int{0, 1, 2}),
		path(t, g, [3]int{1, 1, 2}, [3]int{2, 1, 2})...)
	end := path(t, g, [3]int{0, 2, 2}, [3]int{1, 2, 2}, [3]int{1, 2, 1})
	routes := [][]int32{end, branch}
	got, want := NewChecker(g).Check(routes), refCheck(g, routes)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("checker %v\nreference %v", got, want)
	}
	sadp := ofKind(got, SADPEOL)
	if len(sadp) != 2 || !slices.Equal(sadp[0].Verts, sadp[1].Verts) || !slices.Equal(sadp[0].Nets, sadp[1].Nets) {
		t.Fatalf("want two EOL pairs on the same nets and vertices, got %v", sadp)
	}
	if sadp[0].EOLs[1].Side != 0 || sadp[1].EOLs[1].Side != 1 {
		t.Fatalf("EOL pairs not ordered by side: %v", sadp)
	}
}
