package experiments

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// TestAdaptiveReproducesRecordedRace pins the adaptive race at its
// defaults (seed 1, 30 iterations, three scenarios) to the 21 rows recorded
// in the committed BENCH_PR9.json: the race is deterministic, so every
// score reproduces exactly.
func TestAdaptiveReproducesRecordedRace(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_PR9.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Adaptive []struct {
			Scenario      string  `json:"scenario"`
			Policy        string  `json:"policy"`
			Iters         int     `json:"iters"`
			Completed     bool    `json:"completed"`
			Parts         int     `json:"parts"`
			WallVirtual   float64 `json:"wall_virtual"`
			AvgHeard      float64 `json:"avg_workers_heard"`
			LevelSwitches int     `json:"level_switches"`
		} `json:"adaptive"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Adaptive) != 21 {
		t.Fatalf("BENCH_PR9.json has %d adaptive rows, want 21", len(rec.Adaptive))
	}
	got := map[string]adaptiveRow{}
	for _, scen := range []string{"bursty-tail", "flaky-tail", "slow-decile"} {
		rows, err := adaptiveRace(context.Background(), scen, 30, Options{}.seed())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			got[scen+"/"+r.Policy] = r
		}
	}
	for _, want := range rec.Adaptive {
		key := want.Scenario + "/" + want.Policy
		g, ok := got[key]
		if !ok {
			t.Fatalf("%s: no such row in the race", key)
		}
		if want.Iters != 30 || g.Completed != want.Completed || g.Parts != want.Parts ||
			g.Wall != want.WallVirtual || g.AvgHeard != want.AvgHeard || g.Switches != want.LevelSwitches {
			t.Errorf("%s: got completed=%v parts=%d wall=%v heard=%v switches=%d, recorded %+v",
				key, g.Completed, g.Parts, g.Wall, g.AvgHeard, g.Switches, want)
		}
	}
}

// TestAdaptiveQuick: the quick race is the bursty-tail scenario alone at 8
// iterations, one row per policy, every run completing.
func TestAdaptiveQuick(t *testing.T) {
	tab := mustRun(t, "adaptive")
	if len(tab.Rows) != 7 {
		t.Fatalf("quick race has %d rows, want 7", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[0] != "bursty-tail" || row[2] != "true" {
			t.Fatalf("quick row %v: want a completed bursty-tail run", row)
		}
	}
}
