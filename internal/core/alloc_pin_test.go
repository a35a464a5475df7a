package core

import (
	"runtime"
	"testing"
)

// TestBnBAllocsPerNode pins what a CDC-BnB node allocates on one fixed
// rule-sweep-shaped clip (7x10x4, seed 115, RULE8: about 1500 nodes). Route
// buffers, ban sets and the DRC checker's scratch are per worker, so what
// remains per node is the node itself, its ban delta and fingerprints, the
// route-cache entries it creates and the children it keeps.
func TestBnBAllocsPerNode(t *testing.T) {
	const maxBytesPerNode = 6 << 10
	g := treeGraph(t, 115, "RULE8")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sol, err := SolveBnB(g, BnBOptions{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Proven || sol.Nodes < 1000 {
		t.Fatalf("instance drifted: proven=%v nodes=%d", sol.Proven, sol.Nodes)
	}
	perNode := float64(after.TotalAlloc-before.TotalAlloc) / float64(sol.Nodes)
	t.Logf("%d nodes, %.0f bytes allocated per node", sol.Nodes, perNode)
	if perNode > maxBytesPerNode {
		t.Errorf("SolveBnB allocated %.0f bytes per node, want <= %d", perNode, maxBytesPerNode)
	}
}
