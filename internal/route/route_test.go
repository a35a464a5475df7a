package route

import (
	"testing"

	"optrouter/internal/cells"
	"optrouter/internal/netlist"
	"optrouter/internal/place"
	"optrouter/internal/tech"
)

func routed(t *testing.T, tt *tech.Technology, n int, util float64, seed int64) *Result {
	t.Helper()
	res, err := Route(placed(t, tt, n, util, seed), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// placed places an n-instance M0-class netlist at the target utilization.
func placed(tb testing.TB, tt *tech.Technology, n int, util float64, seed int64) *place.Placement {
	tb.Helper()
	lib := cells.Generate(tt)
	nl, err := netlist.Generate(lib, netlist.M0Class(n, seed))
	if err != nil {
		tb.Fatal(err)
	}
	p, err := Place(lib, nl, util)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// Place is a tiny wrapper so the helper reads clearly.
func Place(lib *cells.Library, nl *netlist.Netlist, util float64) (*place.Placement, error) {
	return place.Place(lib, nl, place.Options{TargetUtil: util})
}

func TestRouteSmallDesign(t *testing.T) {
	res := routed(t, tech.N28T12(), 150, 0.85, 1)
	if res.Conflicts != 0 {
		t.Fatalf("router left %d conflicts", res.Conflicts)
	}
	wl, vias := res.WirelengthVias()
	if wl == 0 || vias == 0 {
		t.Fatalf("implausible totals wl=%d vias=%d", wl, vias)
	}
}

func TestAllNetsConnected(t *testing.T) {
	res := routed(t, tech.N28T12(), 120, 0.8, 2)
	p := res.P
	for i := range p.NL.Nets {
		n := &p.NL.Nets[i]
		rn := &res.Nets[i]
		if len(n.Sinks) > 0 && len(rn.Steps) == 0 {
			t.Fatalf("net %s unrouted", n.Name)
		}
		// Connectivity: union-find over step endpoints + terminals.
		parent := map[[3]int][3]int{}
		var find func(v [3]int) [3]int
		find = func(v [3]int) [3]int {
			if p, ok := parent[v]; ok && p != v {
				root := find(p)
				parent[v] = root
				return root
			}
			if _, ok := parent[v]; !ok {
				parent[v] = v
			}
			return parent[v]
		}
		union := func(a, b [3]int) {
			ra, rb := find(a), find(b)
			if ra != rb {
				parent[ra] = rb
			}
		}
		for _, s := range rn.Steps {
			union([3]int{s.FromX, s.FromY, s.FromZ}, [3]int{s.ToX, s.ToY, s.ToZ})
		}
		// A pin's access points are electrically common (the pin shape is
		// one conductor), so union them before checking connectivity.
		unionPin := func(ref netlist.PinRef) {
			aps := p.PinAPs(ref)
			for k := 1; k < len(aps); k++ {
				union([3]int{aps[0].X, aps[0].Y, res.MinLayer}, [3]int{aps[k].X, aps[k].Y, res.MinLayer})
			}
		}
		unionPin(n.Driver)
		for _, s := range n.Sinks {
			unionPin(s)
		}
		// All terminals must be in one component (any AP of each pin).
		var roots [][3]int
		check := func(aps [][3]int) {
			for _, ap := range aps {
				if _, ok := parent[ap]; ok {
					roots = append(roots, find(ap))
					return
				}
			}
			t.Fatalf("net %s: no access point of a pin touched by route", n.Name)
		}
		terminalAPs := func(ref netlist.PinRef) [][3]int {
			var out [][3]int
			for _, ap := range p.PinAPs(ref) {
				out = append(out, [3]int{ap.X, ap.Y, res.MinLayer})
			}
			return out
		}
		check(terminalAPs(n.Driver))
		for _, s := range n.Sinks {
			check(terminalAPs(s))
		}
		for _, r := range roots[1:] {
			if r != roots[0] {
				t.Fatalf("net %s: terminals in different components", n.Name)
			}
		}
	}
}

func TestUnidirectionalSteps(t *testing.T) {
	res := routed(t, tech.N28T8(), 100, 0.8, 3)
	for i := range res.Nets {
		for _, s := range res.Nets[i].Steps {
			if s.IsVia() {
				if s.FromX != s.ToX || s.FromY != s.ToY || geomAbs(s.FromZ-s.ToZ) != 1 {
					t.Fatalf("malformed via step %+v", s)
				}
				continue
			}
			if s.FromZ%2 == 0 { // horizontal layer
				if s.FromY != s.ToY || geomAbs(s.FromX-s.ToX) != 1 {
					t.Fatalf("horizontal layer step %+v not horizontal", s)
				}
			} else {
				if s.FromX != s.ToX || geomAbs(s.FromY-s.ToY) != 1 {
					t.Fatalf("vertical layer step %+v not vertical", s)
				}
			}
		}
	}
}

func geomAbs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestNoM1Routing(t *testing.T) {
	res := routed(t, tech.N28T12(), 80, 0.8, 4)
	for i := range res.Nets {
		for _, s := range res.Nets[i].Steps {
			if s.FromZ < res.MinLayer || s.ToZ < res.MinLayer {
				t.Fatalf("step %+v uses a layer below MinLayer %d", s, res.MinLayer)
			}
		}
	}
}

func TestVertexDisjoint(t *testing.T) {
	res := routed(t, tech.N28T12(), 150, 0.9, 5)
	if res.Conflicts != 0 {
		t.Skipf("router did not fully converge (%d conflicts); disjointness vacuous", res.Conflicts)
	}
	users := map[[3]int]int{}
	for i := range res.Nets {
		seen := map[[3]int]bool{}
		for _, s := range res.Nets[i].Steps {
			for _, v := range [][3]int{{s.FromX, s.FromY, s.FromZ}, {s.ToX, s.ToY, s.ToZ}} {
				if seen[v] {
					continue
				}
				seen[v] = true
				if prev, ok := users[v]; ok && prev != i {
					t.Fatalf("vertex %v shared by nets %d and %d", v, prev, i)
				}
				users[v] = i
			}
		}
	}
}

func TestHigherUtilMoreCongestion(t *testing.T) {
	// Not a strict law at small sizes, but wirelength per net should be
	// finite and the router should converge at both utilizations.
	for _, util := range []float64{0.7, 0.95} {
		res := routed(t, tech.N7T9(), 200, util, 6)
		if res.Conflicts != 0 {
			t.Fatalf("util %.2f: %d conflicts", util, res.Conflicts)
		}
	}
}

// TestEmptyRouteIsNotAConflict strips one net's sinks from a design that
// converges in one pass. The net's correct route is empty; it must not be
// re-queued as unrouted, so the pass count stays the unmodified design's.
func TestEmptyRouteIsNotAConflict(t *testing.T) {
	base, err := Route(smallDesign(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Conflicts != 0 {
		t.Fatalf("unmodified design left %d conflicts", base.Conflicts)
	}
	p := smallDesign(t)
	k := -1
	for i := range p.NL.Nets {
		if len(p.NL.Nets[i].Sinks) > 0 {
			k = i
			break
		}
	}
	if k < 0 {
		t.Fatal("design has no net with sinks")
	}
	p.NL.Nets[k].Sinks = nil
	res, err := Route(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nets[k].Steps) != 0 {
		t.Fatalf("sinkless net %s routed %d steps", p.NL.Nets[k].Name, len(res.Nets[k].Steps))
	}
	if res.Iters != base.Iters || res.Conflicts != 0 {
		t.Fatalf("iters %d conflicts %d, want %d and 0", res.Iters, res.Conflicts, base.Iters)
	}
}

// TestLabelBoundGuard checks that a cost setting whose labels could pass
// math.MaxInt32 is an error rather than a wrapped, silently wrong search.
func TestLabelBoundGuard(t *testing.T) {
	if _, err := Route(smallDesign(t), Options{ViaCost: 1 << 30}); err == nil {
		t.Fatal("via cost 2^30 routed without error; labels would wrap int32")
	}
}
