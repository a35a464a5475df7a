package tech

import "testing"

func TestStandardRulesMatchTable3(t *testing.T) {
	rules := StandardRules()
	if len(rules) != 11 {
		t.Fatalf("expected 11 rules, got %d", len(rules))
	}
	want := []struct {
		name    string
		sadp    int
		blocked int
	}{
		{"RULE1", 0, 0},
		{"RULE2", 2, 0},
		{"RULE3", 3, 0},
		{"RULE4", 4, 0},
		{"RULE5", 5, 0},
		{"RULE6", 0, 4},
		{"RULE7", 2, 4},
		{"RULE8", 3, 4},
		{"RULE9", 0, 8},
		{"RULE10", 2, 8},
		{"RULE11", 3, 8},
	}
	for i, w := range want {
		r := rules[i]
		if r.Name != w.name || r.SADPMinLayer != w.sadp || r.BlockedVias != w.blocked {
			t.Errorf("rule %d = %+v, want %+v", i, r, w)
		}
	}
}

func TestRuleByName(t *testing.T) {
	r, ok := RuleByName("RULE6")
	if !ok || r.BlockedVias != 4 || r.SADPMinLayer != 0 {
		t.Fatalf("RuleByName(RULE6) = %+v, %v", r, ok)
	}
	if _, ok := RuleByName("RULE99"); ok {
		t.Error("unknown rule should not resolve")
	}
}

func TestPatterning(t *testing.T) {
	r, _ := RuleByName("RULE3") // SADP >= M3
	cases := []struct {
		layer int
		want  Patterning
	}{
		{1, LELE}, {2, LELE}, {3, SADP}, {4, SADP}, {8, SADP},
	}
	for _, c := range cases {
		if got := r.Patterning(c.layer); got != c.want {
			t.Errorf("RULE3 patterning(M%d) = %v, want %v", c.layer, got, c.want)
		}
	}
	r1, _ := RuleByName("RULE1")
	for l := 1; l <= 8; l++ {
		if r1.Patterning(l) != LELE {
			t.Errorf("RULE1 must be all-LELE; M%d is not", l)
		}
	}
	if r1.HasSADP() {
		t.Error("RULE1 HasSADP should be false")
	}
	if !r.HasSADP() {
		t.Error("RULE3 HasSADP should be true")
	}
}

func TestTechnologiesMatchTable2(t *testing.T) {
	techs := AllTechnologies()
	if len(techs) != 3 {
		t.Fatalf("expected 3 technologies, got %d", len(techs))
	}
	wantNames := []string{"N28-12T", "N28-8T", "N7-9T"}
	wantTracks := []int{12, 8, 9}
	for i, tt := range techs {
		if tt.Name != wantNames[i] {
			t.Errorf("tech %d name = %s, want %s", i, tt.Name, wantNames[i])
		}
		if tt.TrackHeight != wantTracks[i] {
			t.Errorf("%s track height = %d, want %d", tt.Name, tt.TrackHeight, wantTracks[i])
		}
		if tt.NumLayers() != 8 {
			t.Errorf("%s must have 8 metal layers, got %d", tt.Name, tt.NumLayers())
		}
		if tt.RowHeightNM != tt.TrackHeight*tt.HPitchNM() {
			t.Errorf("%s row height %d != tracks*hpitch %d", tt.Name, tt.RowHeightNM, tt.TrackHeight*tt.HPitchNM())
		}
	}
}

func TestStackAlternatesAndPitches(t *testing.T) {
	tt := N28T12()
	// Paper's scaled BEOL: 100nm horizontal pitch, 136nm vertical pitch.
	if tt.HPitchNM() != 100 || tt.VPitchNM() != 136 {
		t.Fatalf("pitches = %d/%d, want 100/136", tt.HPitchNM(), tt.VPitchNM())
	}
	for i, l := range tt.Layers {
		wantDir := Horizontal
		if (i+1)%2 == 0 {
			wantDir = Vertical
		}
		if l.Dir != wantDir {
			t.Errorf("layer %s direction = %v, want %v", l.Name, l.Dir, wantDir)
		}
		if l.Index != i+1 {
			t.Errorf("layer %d index = %d", i, l.Index)
		}
	}
}

func TestLayerByName(t *testing.T) {
	tt := N7T9()
	l, ok := tt.LayerByName("M3")
	if !ok || l.Index != 3 || l.Dir != Horizontal {
		t.Fatalf("LayerByName(M3) = %+v, %v", l, ok)
	}
	if _, ok := tt.LayerByName("M42"); ok {
		t.Error("unknown layer should not resolve")
	}
}

func TestN7RuleApplicability(t *testing.T) {
	n7 := N7T9()
	rules := RulesFor(n7)
	// Paper: RULE2, 7, 9, 10, 11 are not tested for N7-9T.
	gotNames := map[string]bool{}
	for _, r := range rules {
		gotNames[r.Name] = true
	}
	for _, excluded := range []string{"RULE2", "RULE7", "RULE9", "RULE10", "RULE11"} {
		if gotNames[excluded] {
			t.Errorf("%s must be excluded for N7-9T", excluded)
		}
	}
	for _, included := range []string{"RULE1", "RULE3", "RULE4", "RULE5", "RULE6", "RULE8"} {
		if !gotNames[included] {
			t.Errorf("%s must be included for N7-9T", included)
		}
	}
	// All 11 rules apply for both N28 technologies.
	for _, tech := range []*Technology{N28T12(), N28T8()} {
		if got := len(RulesFor(tech)); got != 11 {
			t.Errorf("%s should evaluate all 11 rules, got %d", tech.Name, got)
		}
	}
}

func TestViaShapes(t *testing.T) {
	if SingleVia.ColsX != 1 || SingleVia.RowsY != 1 {
		t.Error("single via must be 1x1")
	}
	// Paper: larger via shapes get lower cost.
	if !(SquareVia.Cost < HBarVia.Cost && HBarVia.Cost < SingleVia.Cost) {
		t.Error("via costs must decrease with size")
	}
	if VBarVia.Cost != HBarVia.Cost {
		t.Error("bar vias should cost the same in either orientation")
	}
}

func TestStringers(t *testing.T) {
	if Horizontal.String() != "H" || Vertical.String() != "V" {
		t.Error("Direction.String broken")
	}
	if LELE.String() != "LELE" || SADP.String() != "SADP" {
		t.Error("Patterning.String broken")
	}
	r, _ := RuleByName("RULE8")
	if got := r.String(); got != "RULE8 (SADP >= M3, 4 neighbors blocked)" {
		t.Errorf("RuleConfig.String = %q", got)
	}
}

// TestStricterTable3 pins the Table 3 partial order over all 121 rule
// pairs: row a, column b holds 1 where Stricter(a, b).
func TestStricterTable3(t *testing.T) {
	want := []string{
		//         RULE 1..11
		"1..........", // RULE1: no SADP, 0 blocked
		"11111......", // RULE2: SADP >= M2, 0 blocked
		"1.111......", // RULE3: SADP >= M3, 0 blocked
		"1..11......", // RULE4: SADP >= M4, 0 blocked
		"1...1......", // RULE5: SADP >= M5, 0 blocked
		"1....1.....", // RULE6: no SADP, 4 blocked
		"11111111...", // RULE7: SADP >= M2, 4 blocked
		"1.1111.1...", // RULE8: SADP >= M3, 4 blocked
		"1....1..1..", // RULE9: no SADP, 8 blocked
		"11111111111", // RULE10: SADP >= M2, 8 blocked
		"1.1111.11.1", // RULE11: SADP >= M3, 8 blocked
	}
	rules := StandardRules()
	for i, a := range rules {
		row := make([]byte, len(rules))
		for j, b := range rules {
			row[j] = '.'
			if Stricter(a, b) {
				row[j] = '1'
			}
		}
		if string(row) != want[i] {
			t.Errorf("Stricter(%s, RULE1..11) = %s, want %s", a.Name, row, want[i])
		}
	}
}
