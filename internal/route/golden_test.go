package route

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"optrouter/internal/cells"
	"optrouter/internal/netlist"
	"optrouter/internal/place"
	"optrouter/internal/tech"
)

// fingerprint hashes a routed design: every net's index and steps in order,
// then Iters, Conflicts, wirelength and vias. Two routers with the same
// fingerprint made the same route for every net.
func fingerprint(res *Result) string {
	h := sha256.New()
	var b [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		h.Write(b[:])
	}
	for i := range res.Nets {
		n := &res.Nets[i]
		put(n.NetIdx)
		put(len(n.Steps))
		for _, s := range n.Steps {
			put(s.FromX)
			put(s.FromY)
			put(s.FromZ)
			put(s.ToX)
			put(s.ToY)
			put(s.ToZ)
		}
	}
	wl, vias := res.WirelengthVias()
	put(res.Iters)
	put(res.Conflicts)
	put(wl)
	put(vias)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// quickDesign places a first-utilization exp.QuickTestbed row on N28-12T
// the way exp.BuildTestbed does: AES-300 or M0-250 with netlist seed
// designSeed.
func quickDesign(tb testing.TB, profile string, util float64, designSeed int64) *place.Placement {
	tb.Helper()
	lib := cells.Generate(tech.N28T12())
	prof := netlist.M0Class(250, designSeed)
	if profile == "AES" {
		prof = netlist.AESClass(300, designSeed)
	}
	nl, err := netlist.Generate(lib, prof)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := Place(lib, nl, util)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestRouteGolden pins the router's output on quick-testbed designs at 4
// layers (the Fig. 6 flow's routing) bit for bit. Any change to the search
// order, the tie order of the queue or the rip-up schedule shows here.
func TestRouteGolden(t *testing.T) {
	cases := []struct {
		profile    string
		util       float64
		designSeed int64
		iters      int
		conflicts  int
		long       bool
		want       string
	}{
		// Converges in one pass.
		{"M0", 0.90, 1, 1, 0, false, "c80665987207f9cdfc2123a1f478a123687c61b70905fc36c9b6b0e547188e83"},
		// Runs all 12 rip-up passes and keeps 32 conflicted vertices.
		{"M0", 0.90, 15, 12, 32, false, "4de93b2ab34d791b7a8364d8c4a666c0bd85fec49c37608fa72dd05e6d40979e"},
		// The largest quick-testbed design, 12 passes with wide searches.
		{"AES", 0.89, 1, 12, 1486, true, "3cc1c6cd15825a9df0828ccb822de3944556f803921af7f25c18b08624fd643a"},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s-%.2f-seed%d", c.profile, c.util, c.designSeed)
		t.Run(name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("long design skipped in -short mode")
			}
			res, err := Route(quickDesign(t, c.profile, c.util, c.designSeed), Options{Layers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if res.Iters != c.iters || res.Conflicts != c.conflicts {
				t.Errorf("iters %d conflicts %d, want %d and %d", res.Iters, res.Conflicts, c.iters, c.conflicts)
			}
			if got := fingerprint(res); got != c.want {
				t.Errorf("route fingerprint %s, want %s", got, c.want)
			}
		})
	}
}

// TestRouteAllocs pins the router's allocation count on the small design.
// Every search reuses the router's queue and label arrays, so what remains
// is per-net bookkeeping (tree sets, step slices, conflict scans).
func TestRouteAllocs(t *testing.T) {
	p := smallDesign(t)
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Route(p, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20000 {
		t.Fatalf("Route made %.0f allocations, want <= 20000", allocs)
	}
}

// smallDesign is TestRouteSmallDesign's design.
func smallDesign(tb testing.TB) *place.Placement {
	return placed(tb, tech.N28T12(), 150, 0.85, 1)
}

// BenchmarkRoute times whole-design routing: the quick testbed's AES-300 at
// 89 % utilization on 4 layers (the Fig. 6 flow's heaviest route), and the
// small design on the default 8 layers.
func BenchmarkRoute(b *testing.B) {
	cases := []struct {
		name string
		p    func(testing.TB) *place.Placement
		opt  Options
	}{
		{"AES-300", func(tb testing.TB) *place.Placement { return quickDesign(tb, "AES", 0.89, 1) }, Options{Layers: 4}},
		{"small", smallDesign, Options{}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			p := c.p(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Route(p, c.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
