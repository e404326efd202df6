package planner

import (
	"math"
	"sync"
	"testing"

	"androne/internal/geo"
)

// legStops scatters n stops around the test base and puts stop 17 on stop
// 5's position, so the pair (5, 17) has a genuinely zero distance.
func legStops(r *rng, n int) []Stop {
	stops := make([]Stop, n)
	for i := range stops {
		stops[i].Waypoint = wpAt(r.uniform()*1600-800, r.uniform()*1600-800)
		stops[i].Waypoint.Alt = 10 + r.uniform()*30
	}
	stops[17].Waypoint = stops[5].Waypoint
	return stops
}

func TestLegTableConcurrentFill(t *testing.T) {
	// Several workers query random pairs of one plan's table at once; every
	// value must be bit-equal to geo.Distance3D. The 300-stop table is the
	// shared lock-free triangle; the 1500-stop one is past legDenseBytes,
	// so each worker reads its own probe table over the shared positions.
	const workers = 4
	for _, n := range []int{300, 1500} {
		stops := legStops(newRNG("legs"), n)
		shared := newLegTable(stops, base)
		if dense := triSlots(n)*8 <= legDenseBytes; (shared.tri != nil) != dense {
			t.Fatalf("n=%d: triangle %v, want %v", n, shared.tri != nil, dense)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				tab := shared.worker()
				r := newRNG("legs/" + string(rune('a'+w)))
				for q := 0; q < 20000; q++ {
					i, j := kintn(r, n+1), kintn(r, n+1)
					if q%16 == 0 {
						i, j = 17, 5
					}
					lo, hi := min(i, j), max(i, j)
					want := 0.0
					if lo != hi {
						want = geo.Distance3D(shared.pos[lo], shared.pos[hi])
					}
					if got := tab.dist(i, j); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("n=%d: dist(%d, %d) = %v, geo.Distance3D %v", n, i, j, got, want)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if d := shared.worker().dist(5, 17); d != 0 {
			t.Fatalf("n=%d: co-located stops at distance %g", n, d)
		}
	}
}

// plan1000Tasks is a plan-large-shaped instance: tasks of one to three
// waypoints, about a third of them ordered, exactly 1000 stops.
func plan1000Tasks() []Task {
	tasks := genTasks(newRNG("plan1000"), 800, 3, 0.3)
	stops := 0
	for i := range tasks {
		if stops+len(tasks[i].Waypoints) >= 1000 {
			tasks[i].Waypoints = tasks[i].Waypoints[:1000-stops]
			return tasks[:i+1]
		}
		stops += len(tasks[i].Waypoints)
	}
	panic("plan1000Tasks: instance has fewer than 1000 stops")
}

// BenchmarkPlan1000 times one full plan at plan-large's settings (1000
// stops, fleet 4, 8 restarts over 2 workers), so the planner layer can be
// measured without the perfbench harness.
func BenchmarkPlan1000(b *testing.B) {
	tasks := plan1000Tasks()
	cfg := DefaultConfig(base)
	cfg.FleetSize = 4
	cfg.Restarts = 8
	cfg.Workers = 2
	cfg.Seed = "bench-plan1000"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Plan(tasks); err != nil {
			b.Fatal(err)
		}
	}
}
