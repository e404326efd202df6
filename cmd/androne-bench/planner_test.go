package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestPlannerPipeline runs the full planner experiment — ns/move at both
// sizes, the parity gate, the restart determinism gate, the campaign loop
// and its sabotage control, the JSON document — at test scale. The gates
// are the real ones: the kernel must beat the cloning baseline by >= 25x
// ns/move even on the small instances, and the sabotaged campaign must be
// caught.
func TestPlannerPipeline(t *testing.T) {
	out := filepath.Join(t.TempDir(), "planner.json")
	err := plannerBench(plannerOpts{
		out: out, seed: "planner-test",
		sizes: []int{60, 200}, gateAt: 1, campaignN: 3,
	})
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc plannerDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Sizes) != 2 || doc.Sizes[0].Stops != 60 || doc.Sizes[1].Stops != 200 {
		t.Fatalf("unexpected size rows: %+v", doc.Sizes)
	}
	if doc.Sizes[0].ParityMoves == 0 {
		t.Fatal("parity gate did not run")
	}
	if doc.Sizes[1].Speedup < 25 {
		t.Fatalf("gated speedup %.1fx below 25x", doc.Sizes[1].Speedup)
	}
	if !doc.Restart.BitIdentical {
		t.Fatal("restart leg not bit-identical")
	}
	// The restart row claims a speedup only when the pool fits the host.
	rst := doc.Restart
	if doc.Host.NumCPU != runtime.NumCPU() || rst.Oversubscribed != (rst.Workers > doc.Host.NumCPU) {
		t.Fatalf("restart row %+v wrong for host %+v", rst, doc.Host)
	}
	if (rst.Speedup != 0) == rst.Oversubscribed {
		t.Fatalf("restart row speedup %.2f with oversubscribed=%v", rst.Speedup, rst.Oversubscribed)
	}
	if !doc.Campaign.SabotageTripped {
		t.Fatal("sabotage control did not trip")
	}
	if doc.Campaign.Replans != 1 {
		t.Fatalf("campaign replans = %d, want 1", doc.Campaign.Replans)
	}
	if doc.Campaign.MaxDeviationFrac <= 0 || doc.Campaign.MaxDeviationFrac > doc.Campaign.ToleranceFrac {
		t.Fatalf("campaign deviation %.2f outside (0, %.2f]", doc.Campaign.MaxDeviationFrac, doc.Campaign.ToleranceFrac)
	}
}

// TestPlannerTasksDeterministic pins the instance generator: same seed,
// same tasks; the requested count is exact (stops == tasks, one waypoint
// each) so the "stops" axis in BENCH_planner.json means what it says.
func TestPlannerTasksDeterministic(t *testing.T) {
	a := plannerTasks(50, "gen")
	b := plannerTasks(50, "gen")
	if len(a) != 50 {
		t.Fatalf("got %d tasks, want 50", len(a))
	}
	for i := range a {
		if len(a[i].Waypoints) != 1 {
			t.Fatalf("task %d has %d waypoints, want 1", i, len(a[i].Waypoints))
		}
		if a[i].ID != b[i].ID || a[i].Waypoints[0] != b[i].Waypoints[0] || a[i].EnergyJ != b[i].EnergyJ {
			t.Fatalf("task %d differs between identically-seeded generations", i)
		}
	}
}
