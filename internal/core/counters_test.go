package core

import (
	"maps"
	"reflect"
	"testing"
)

// notCounters are the integer fields of SolveStats that are not rows of
// SolveCounters, each for a stated reason.
var notCounters = map[string]string{
	"MaxDepth":         "a maximum, not a sum",
	"DRCTime":          "time",
	"LPTime":           "time",
	"Elapsed":          "time",
	"LagrangianRounds": "deprecated, always 0",
	"ModelRows":        "model dimension",
	"ModelCols":        "model dimension",
	"ModelNNZ":         "model dimension",
	"Par":              "scheduling",
}

// TestSolveCountersCoverStats checks the counter table against SolveStats by
// reflection: every integer field is read by exactly one row or is listed in
// notCounters, every row reads exactly one field, and names are unique. A
// new counter field without a row (or an exclusion) fails here.
func TestSolveCountersCoverStats(t *testing.T) {
	names := map[string]bool{}
	for _, c := range SolveCounters {
		if names[c.Name] {
			t.Errorf("duplicate counter name %q", c.Name)
		}
		names[c.Name] = true
	}

	unseen := maps.Clone(notCounters)
	readers := make([][]string, len(SolveCounters)) // fields each row reads
	for _, f := range reflect.VisibleFields(reflect.TypeOf(SolveStats{})) {
		if f.Anonymous {
			continue
		}
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int64:
		default:
			continue
		}
		var st SolveStats
		reflect.ValueOf(&st).Elem().FieldByIndex(f.Index).SetInt(7)
		var rows []string
		for i, c := range SolveCounters {
			if v := c.Get(&st); v != 0 {
				if v != 7 {
					t.Errorf("row %s reads %s as %d, want 7", c.Name, f.Name, v)
				}
				rows = append(rows, c.Name)
				readers[i] = append(readers[i], f.Name)
			}
		}
		_, excluded := notCounters[f.Name]
		switch {
		case excluded && len(rows) > 0:
			t.Errorf("field %s is excluded but read by %v", f.Name, rows)
		case !excluded && len(rows) != 1:
			t.Errorf("field %s is read by rows %v, want exactly one row or an exclusion", f.Name, rows)
		}
		delete(unseen, f.Name)
	}
	for name := range unseen {
		t.Errorf("exclusion %s names no integer field of SolveStats", name)
	}
	for i, c := range SolveCounters {
		if len(readers[i]) != 1 {
			t.Errorf("row %s reads fields %v, want exactly one", c.Name, readers[i])
		}
	}
}

// TestSolveStatsWork pins the key set of each bench work class.
func TestSolveStatsWork(t *testing.T) {
	keys := func(w map[string]int64) map[string]bool {
		out := map[string]bool{}
		for k := range w {
			out[k] = true
		}
		return out
	}
	set := func(names ...string) map[string]bool {
		out := map[string]bool{}
		for _, n := range names {
			out[n] = true
		}
		return out
	}
	for _, tc := range []struct {
		name string
		milp bool
		par  int
		want map[string]bool
	}{
		{"milp", true, 0, set("nodes", "lp_solves", "simplex_iters", "ftran_nnz", "btran_nnz")},
		{"serial", false, 0, set("nodes", "steiner_solves", "steiner_cells", "drc_checks", "bans_generated", "dives")},
		{"par", false, 8, set("nodes", "drc_checks", "bans_generated", "dives")},
	} {
		st := SolveStats{Par: tc.par}
		if got := keys(st.Work(tc.milp)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s work keys = %v, want %v", tc.name, got, tc.want)
		}
	}
}
