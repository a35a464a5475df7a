// Package tech models BEOL process technologies for the OptRouter
// reproduction: metal layer stacks (pitch, preferred direction, patterning),
// via definitions and shapes, and the design-rule configurations RULE1–RULE11
// of the paper's Table 3.
//
// Three technologies are provided, mirroring the paper's testbed: 12-track
// and 8-track libraries in a 28nm-class BEOL (N28-12T, N28-8T) and a 9-track
// 7nm-class library scaled into the same BEOL grid (N7-9T), exactly as the
// paper scales its prototype 7nm cells by 2.5x to fit the 28nm stack.
package tech

import "fmt"

// Direction is a routing layer's preferred direction. All layers in this
// study are unidirectional (paper section 4.1).
type Direction uint8

const (
	// Horizontal wires run along X.
	Horizontal Direction = iota
	// Vertical wires run along Y.
	Vertical
)

func (d Direction) String() string {
	if d == Horizontal {
		return "H"
	}
	return "V"
}

// Patterning is the multi-patterning style of a layer under a RuleConfig.
type Patterning uint8

const (
	// LELE is litho-etch-litho-etch double patterning (no EOL rules here).
	LELE Patterning = iota
	// SADP is self-aligned double patterning, which activates the
	// EOL (end-of-line) rules of constraints (6)-(12).
	SADP
)

func (p Patterning) String() string {
	if p == LELE {
		return "LELE"
	}
	return "SADP"
}

// Layer describes one metal layer of the BEOL stack.
type Layer struct {
	Name    string    // e.g. "M2"
	Index   int       // 1-based metal index; M1 == 1
	Dir     Direction // preferred (and only) routing direction
	PitchNM int       // track pitch in nanometers
}

// ViaShape describes a via footprint in track units. A 1x1 via occupies one
// grid vertex; a bar or square via spans several adjacent tracks on both the
// lower and upper layer (paper Fig. 2) and is modeled in the routing graph by
// a representative vertex.
type ViaShape struct {
	Name string
	// ColsX and RowsY are the footprint extents in vertical-track (X) and
	// horizontal-track (Y) units.
	ColsX, RowsY int
	// Cost is the routing cost of using the via. The paper assigns lower
	// costs to larger vias so the optimizer prefers them for
	// manufacturability.
	Cost int
}

// Standard via shapes. SingleVia is the default for the rule-evaluation
// experiments; the others are exercised by the via-shape study.
var (
	SingleVia = ViaShape{Name: "V1x1", ColsX: 1, RowsY: 1, Cost: 4}
	HBarVia   = ViaShape{Name: "V2x1", ColsX: 2, RowsY: 1, Cost: 3}
	VBarVia   = ViaShape{Name: "V1x2", ColsX: 1, RowsY: 2, Cost: 3}
	SquareVia = ViaShape{Name: "V2x2", ColsX: 2, RowsY: 2, Cost: 2}
)

// Technology is a process node + standard-cell architecture pairing.
type Technology struct {
	Name        string // "N28-12T", "N28-8T", "N7-9T"
	Node        string // "N28" or "N7"
	TrackHeight int    // standard-cell height in routing tracks (12, 8, 9)

	Layers []Layer // Layers[0] is M1

	// Placement geometry (nm). Cell height = TrackHeight * HPitchNM.
	SiteWidthNM int // placement site width (vertical-layer pitch)
	RowHeightNM int

	// PinAccessPoints is the typical number of access points per input pin
	// in this library (paper Fig. 9: N28-12T has generous pins, scaled
	// N7-9T pins expose only two nearby access points).
	PinAccessPoints int
	// PinSpanTracks is the typical vertical span of a pin shape in
	// horizontal-track units.
	PinSpanTracks int
}

// HPitchNM returns the pitch of horizontal routing layers.
func (t *Technology) HPitchNM() int {
	for _, l := range t.Layers {
		if l.Dir == Horizontal {
			return l.PitchNM
		}
	}
	return 100
}

// VPitchNM returns the pitch of vertical routing layers.
func (t *Technology) VPitchNM() int {
	for _, l := range t.Layers {
		if l.Dir == Vertical {
			return l.PitchNM
		}
	}
	return 136
}

// NumLayers returns the number of metal layers.
func (t *Technology) NumLayers() int { return len(t.Layers) }

// LayerByName finds a layer by name; ok is false if absent.
func (t *Technology) LayerByName(name string) (Layer, bool) {
	for _, l := range t.Layers {
		if l.Name == name {
			return l, true
		}
	}
	return Layer{}, false
}

// makeStack builds an 8-layer stack with alternating directions. Following
// the paper's scaled-BEOL methodology, the horizontal pitch is 100nm and the
// vertical pitch is 136nm for every technology (the 7nm library is scaled
// into the 28nm stack).
func makeStack() []Layer {
	layers := make([]Layer, 8)
	for i := range layers {
		idx := i + 1
		dir := Horizontal
		pitch := 100
		if idx%2 == 0 {
			dir = Vertical
			pitch = 136
		}
		layers[i] = Layer{Name: fmt.Sprintf("M%d", idx), Index: idx, Dir: dir, PitchNM: pitch}
	}
	return layers
}

// N28T12 returns the 28nm 12-track technology.
func N28T12() *Technology {
	return &Technology{
		Name:            "N28-12T",
		Node:            "N28",
		TrackHeight:     12,
		Layers:          makeStack(),
		SiteWidthNM:     136,
		RowHeightNM:     1200,
		PinAccessPoints: 4,
		PinSpanTracks:   4,
	}
}

// N28T8 returns the 28nm 8-track technology.
func N28T8() *Technology {
	return &Technology{
		Name:            "N28-8T",
		Node:            "N28",
		TrackHeight:     8,
		Layers:          makeStack(),
		SiteWidthNM:     136,
		RowHeightNM:     800,
		PinAccessPoints: 3,
		PinSpanTracks:   3,
	}
}

// N7T9 returns the 7nm 9-track technology, scaled into the 28nm BEOL grid as
// in the paper (2.5x geometric scaling, pins snapped on-grid).
func N7T9() *Technology {
	return &Technology{
		Name:            "N7-9T",
		Node:            "N7",
		TrackHeight:     9,
		Layers:          makeStack(),
		SiteWidthNM:     136,
		RowHeightNM:     900,
		PinAccessPoints: 2,
		PinSpanTracks:   2,
	}
}

// AllTechnologies returns the three paper technologies in Table 2 order.
func AllTechnologies() []*Technology {
	return []*Technology{N28T12(), N28T8(), N7T9()}
}

// RuleConfig is one BEOL design-rule configuration (a row of Table 3):
// a mix of SADP layers and a via adjacency restriction.
type RuleConfig struct {
	Name string
	// SADPMinLayer is the lowest metal index patterned with SADP
	// (layers >= SADPMinLayer are SADP); 0 means no SADP layers.
	SADPMinLayer int
	// BlockedVias is the number of neighboring via sites blocked by a via:
	// 0 (none), 4 (orthogonal N/E/S/W) or 8 (orthogonal + diagonal).
	BlockedVias int
}

// Patterning reports the patterning of metal layer index under this config.
func (r RuleConfig) Patterning(layerIndex int) Patterning {
	if r.SADPMinLayer > 0 && layerIndex >= r.SADPMinLayer {
		return SADP
	}
	return LELE
}

// HasSADP reports whether any layer is SADP-patterned.
func (r RuleConfig) HasSADP() bool { return r.SADPMinLayer > 0 }

func (r RuleConfig) String() string {
	sadp := "No SADP"
	if r.SADPMinLayer > 0 {
		sadp = fmt.Sprintf("SADP >= M%d", r.SADPMinLayer)
	}
	return fmt.Sprintf("%s (%s, %d neighbors blocked)", r.Name, sadp, r.BlockedVias)
}

// Stricter reports whether rule a is at least as strict as rule b, the
// partial order of Table 3: a patterns with SADP every layer b does (SADP
// from the same or a lower layer; any SADP is stricter than none) and blocks
// at least as many neighbor vias. A routing legal under a is then legal
// under b, so a's optimum on a clip is at least b's, and a is infeasible
// wherever b is. Stricter is reflexive.
func Stricter(a, b RuleConfig) bool {
	sadp := !b.HasSADP() || (a.HasSADP() && a.SADPMinLayer <= b.SADPMinLayer)
	return sadp && a.BlockedVias >= b.BlockedVias
}

// StandardRules returns RULE1..RULE11 exactly as in Table 3.
func StandardRules() []RuleConfig {
	return []RuleConfig{
		{Name: "RULE1", SADPMinLayer: 0, BlockedVias: 0},
		{Name: "RULE2", SADPMinLayer: 2, BlockedVias: 0},
		{Name: "RULE3", SADPMinLayer: 3, BlockedVias: 0},
		{Name: "RULE4", SADPMinLayer: 4, BlockedVias: 0},
		{Name: "RULE5", SADPMinLayer: 5, BlockedVias: 0},
		{Name: "RULE6", SADPMinLayer: 0, BlockedVias: 4},
		{Name: "RULE7", SADPMinLayer: 2, BlockedVias: 4},
		{Name: "RULE8", SADPMinLayer: 3, BlockedVias: 4},
		{Name: "RULE9", SADPMinLayer: 0, BlockedVias: 8},
		{Name: "RULE10", SADPMinLayer: 2, BlockedVias: 8},
		{Name: "RULE11", SADPMinLayer: 3, BlockedVias: 8},
	}
}

// RuleByName returns the named standard rule; ok is false if unknown.
func RuleByName(name string) (RuleConfig, bool) {
	for _, r := range StandardRules() {
		if r.Name == name {
			return r, true
		}
	}
	return RuleConfig{}, false
}

// AppliesTo reports whether the rule is evaluated for the technology.
// The paper skips RULE2, 7, 9, 10 and 11 for N7-9T because the small 7nm
// pin shapes cannot survive diagonal via blocking or SADP down to M2
// (section 4.1, Fig. 9(c)).
func (r RuleConfig) AppliesTo(t *Technology) bool {
	if t.Node != "N7" {
		return true
	}
	if r.BlockedVias == 8 {
		return false
	}
	if r.SADPMinLayer == 2 {
		return false
	}
	return true
}

// RulesFor lists the standard rules evaluated for a technology, preserving
// Table 3 order.
func RulesFor(t *Technology) []RuleConfig {
	var out []RuleConfig
	for _, r := range StandardRules() {
		if r.AppliesTo(t) {
			out = append(out, r)
		}
	}
	return out
}
