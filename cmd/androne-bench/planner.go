// The flight-planner benchmark: BENCH_planner.json records the incremental
// annealing kernel's cost per move against the pre-kernel cloning baseline
// at several instance sizes, the parallel-restart scaling of Plan, and the
// planner-to-fleet campaign loop (planned-vs-debited energy within
// tolerance, re-planning on a drone loss, and the sabotage negative
// control).
//
// Honesty notes: ns/move divides wall-clock by iteration count, so it
// includes each annealer's full bookkeeping (the baseline's clone +
// from-scratch cost; the kernel's delta arithmetic + snapshotting), which
// is exactly the quantity Plan pays per iteration. The two annealers walk
// different trajectories — the comparison is cost-per-move, not
// solution-quality-at-equal-moves; solution parity is pinned separately by
// the in-bench parity gate (incremental cost must equal the naive
// recomputation bit-for-bit after every move) and by the restart
// determinism gate (Plan bit-identical at workers=1 vs NumCPU). The restart
// leg runs at least 4 workers so the pool interleaves even on small hosts;
// when that oversubscribes the host the row says so and carries no
// speedup, since the serial/parallel ratio then measures time-slicing.

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"androne/internal/campaign"
	"androne/internal/geo"
	"androne/internal/planner"
)

// plannerTasks builds a deterministic instance with exactly n single-stop
// tasks scattered over a ~2 km box around home, so "stops" below means n.
func plannerTasks(n int, seed string) []planner.Task {
	r := benchRNG(seed)
	tasks := make([]planner.Task, 0, n)
	for i := 0; i < n; i++ {
		north := r()*2000 - 1000
		east := r()*2000 - 1000
		tasks = append(tasks, planner.Task{
			ID: fmt.Sprintf("t%04d", i),
			Waypoints: []geo.Waypoint{{
				Position:  geo.Position{LatLon: geo.OffsetNE(home.LatLon, north, east), Alt: 15},
				MaxRadius: 40,
			}},
			EnergyJ:   1500 + r()*4000,
			DurationS: 20 + r()*60,
		})
	}
	return tasks
}

// benchRNG is a tiny deterministic uniform source for instance generation
// (xorshift over an FNV-1a hash of the seed).
func benchRNG(seed string) func() float64 {
	var s uint64 = 1469598103934665603
	for i := 0; i < len(seed); i++ {
		s ^= uint64(seed[i])
		s *= 1099511628211
	}
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return (float64(s>>11) + 0.5) / (1 << 53)
	}
}

// plannerSizeRow is one instance size's ns/move comparison.
type plannerSizeRow struct {
	Stops             int     `json:"stops"`
	BaselineIters     int     `json:"baseline-iters"`
	KernelIters       int     `json:"kernel-iters"`
	BaselineNsPerMove float64 `json:"baseline-ns-per-move"`
	KernelNsPerMove   float64 `json:"kernel-ns-per-move"`
	Speedup           float64 `json:"speedup"`
	ParityMoves       int     `json:"parity-moves,omitempty"`
}

// plannerRestart records the parallel-restart leg. Speedup (serial over
// parallel wall time) is recorded only when workers <= host.num-cpu.
type plannerRestart struct {
	Stops          int     `json:"stops"`
	Restarts       int     `json:"restarts"`
	Iterations     int     `json:"iterations"`
	SerialMS       float64 `json:"serial-ms"`
	ParallelMS     float64 `json:"parallel-ms"`
	Workers        int     `json:"workers"`
	Oversubscribed bool    `json:"oversubscribed"`
	Speedup        float64 `json:"speedup,omitempty"`
	BitIdentical   bool    `json:"bit-identical"`
}

// plannerCampaign records the planner-to-fleet loop leg.
type plannerCampaign struct {
	Deliveries       int     `json:"deliveries"`
	Flights          int     `json:"flights"`
	Replans          int     `json:"replans"`
	WaypointsFlown   int     `json:"waypoints-flown"`
	MaxDeviationFrac float64 `json:"max-deviation-frac"`
	ToleranceFrac    float64 `json:"tolerance-frac"`
	SabotageTripped  bool    `json:"sabotage-tripped"`
}

// plannerDoc is the BENCH_planner.json document.
type plannerDoc struct {
	Host     scaleHost        `json:"host"`
	Sizes    []plannerSizeRow `json:"sizes"`
	Restart  plannerRestart   `json:"restart"`
	Campaign plannerCampaign  `json:"campaign"`
	Gate     string           `json:"gate"`
}

// plannerOpts parameterizes the experiment: main runs the full (100/1000/
// 5000 stops) or smoke-sized comparison; tests inject smaller sizes so the
// whole pipeline runs in seconds.
type plannerOpts struct {
	out        string
	seed       string
	sizes      []int // nil means 100/1000/5000
	gateAt     int   // size index whose speedup is gated; default: the 1000-stop row
	minSpeedup float64
	campaignN  int // deliveries; 0 means 6
}

func plannerSmokeOpts(o plannerOpts) plannerOpts {
	o.sizes = []int{100, 400}
	o.gateAt = 1
	o.campaignN = 4
	return o
}

// plannerBench runs the flight-planner experiment and enforces its gates:
// >= 25x ns/move over the cloning baseline at the gated size, bit-level
// incremental-vs-naive cost parity, bit-identical restart winners at any
// worker count, and the campaign loop including its sabotage control.
func plannerBench(o plannerOpts) error {
	header("Fleet-scale flight planner: incremental kernel vs cloning baseline")
	sizes := o.sizes
	if sizes == nil {
		sizes = []int{100, 1000, 5000}
	}
	gateAt := o.gateAt
	if gateAt == 0 && len(sizes) > 1 {
		gateAt = 1
	}
	if o.minSpeedup == 0 {
		o.minSpeedup = 25
	}
	if o.campaignN == 0 {
		o.campaignN = 6
	}
	doc := plannerDoc{
		Host: scaleHost{
			NumCPU:    runtime.NumCPU(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			GoVersion: runtime.Version(),
		},
		Gate: fmt.Sprintf("kernel >= %.0fx baseline ns/move at %d stops; bit-level cost parity; bit-identical restarts; campaign within tolerance and sabotage tripped",
			o.minSpeedup, sizes[gateAt]),
	}

	for si, n := range sizes {
		tasks := plannerTasks(n, o.seed+"-pl")
		cfg := planner.DefaultConfig(home)
		cfg.FleetSize = 1 + n/64
		cfg.Seed = o.seed + "-pl"

		// Baseline: clone-everything annealer. Its per-move cost is O(N), so
		// cap iterations to keep the leg bounded at large N.
		baseIters := 20000
		if n > 500 {
			baseIters = 2000
		}
		cfg.Iterations = baseIters
		t0 := time.Now()
		cfg.BaselineAnneal(tasks)
		baseNs := float64(time.Since(t0).Nanoseconds()) / float64(baseIters)

		// Kernel: O(1) moves, so it affords far more of them.
		kernIters := 100000
		cfg.Iterations = kernIters
		t0 = time.Now()
		cfg.KernelAnneal(tasks)
		kernNs := float64(time.Since(t0).Nanoseconds()) / float64(kernIters)

		row := plannerSizeRow{
			Stops: n, BaselineIters: baseIters, KernelIters: kernIters,
			BaselineNsPerMove: baseNs, KernelNsPerMove: kernNs,
			Speedup: baseNs / kernNs,
		}

		// Parity gate on the smallest size: after every unconditionally
		// accepted move the incremental cost must equal a from-scratch
		// recomputation bit-for-bit.
		if si == 0 {
			moves := 2000
			if got, err := cfg.KernelParity(tasks, moves); err != nil {
				return fmt.Errorf("planner: parity gate failed after %d moves: %w", got, err)
			}
			row.ParityMoves = moves
		}

		doc.Sizes = append(doc.Sizes, row)
		fmt.Printf("  %5d stops: baseline %8.0f ns/move (%d iters), kernel %6.1f ns/move (%d iters), %7.1fx\n",
			n, baseNs, baseIters, kernNs, kernIters, row.Speedup)
	}
	gated := doc.Sizes[gateAt]
	if gated.Speedup < o.minSpeedup {
		return fmt.Errorf("planner: speedup %.1fx at %d stops is below the %.0fx gate",
			gated.Speedup, gated.Stops, o.minSpeedup)
	}

	// Parallel restarts: same plan bit-for-bit at workers=1 and a parallel
	// pool (NumCPU, but at least 4 so interleaving is exercised even on
	// small hosts).
	parWorkers := runtime.NumCPU()
	if parWorkers < 4 {
		parWorkers = 4
	}
	rst := plannerRestart{Stops: 200, Restarts: 8, Iterations: 4000, Workers: parWorkers,
		Oversubscribed: parWorkers > doc.Host.NumCPU}
	rTasks := plannerTasks(rst.Stops, o.seed+"-rst")
	rcfg := planner.DefaultConfig(home)
	rcfg.FleetSize = 4
	rcfg.Seed = o.seed + "-rst"
	rcfg.Restarts = rst.Restarts
	rcfg.Iterations = rst.Iterations
	rcfg.Workers = 1
	t0 := time.Now()
	serial, err := rcfg.Plan(rTasks)
	if err != nil {
		return err
	}
	rst.SerialMS = float64(time.Since(t0).Microseconds()) / 1000
	rcfg.Workers = rst.Workers
	t0 = time.Now()
	par, err := rcfg.Plan(rTasks)
	if err != nil {
		return err
	}
	rst.ParallelMS = float64(time.Since(t0).Microseconds()) / 1000
	scaling := "oversubscribed, no speedup claimed"
	if !rst.Oversubscribed {
		rst.Speedup = rst.SerialMS / rst.ParallelMS
		scaling = fmt.Sprintf("%.1fx", rst.Speedup)
	}
	rst.BitIdentical = reflect.DeepEqual(serial, par)
	doc.Restart = rst
	fmt.Printf("  restarts: %d chains, serial %.1f ms, %d workers on %d CPUs %.1f ms (%s), bit-identical %v\n",
		rst.Restarts, rst.SerialMS, rst.Workers, doc.Host.NumCPU, rst.ParallelMS, scaling, rst.BitIdentical)
	if !rst.BitIdentical {
		return fmt.Errorf("planner: restart winner differs between workers=1 and workers=%d", rst.Workers)
	}

	// Campaign loop: plan, fly, check planned-vs-debited energy, re-plan
	// around an injected drone loss — then the sabotage negative control.
	ccfg := campaign.Config{
		Planner:    planner.DefaultConfig(home),
		Deliveries: campaign.RingDeliveries(o.campaignN, o.seed+"-camp", home),
		Seed:       o.seed + "-camp",
		Fault:      &campaign.Fault{Route: 0, AfterStops: 1},
	}
	ccfg.Planner.FleetSize = 2
	ccfg.Planner.Iterations = 2000
	ccfg.Planner.Restarts = 2
	ccfg.Planner.Seed = o.seed + "-camp"
	res, err := ccfg.Run()
	if err != nil {
		return fmt.Errorf("planner: campaign leg failed: %w", err)
	}
	camp := plannerCampaign{
		Deliveries: o.campaignN, Flights: len(res.Flights), Replans: res.Replans,
		WaypointsFlown: res.WaypointsVisited, MaxDeviationFrac: res.MaxDeviationFrac,
		ToleranceFrac: 0.35,
	}
	fmt.Printf("  campaign: %d flights over %d waypoints, %d replan(s), max energy deviation %.1f%% (tolerance %.0f%%)\n",
		camp.Flights, camp.WaypointsFlown, camp.Replans, camp.MaxDeviationFrac*100, camp.ToleranceFrac*100)

	sab := ccfg
	sab.Fault = nil
	sab.Sabotage = true
	if _, err := sab.Run(); err == nil {
		return fmt.Errorf("planner: sabotaged campaign passed the energy checker — the gate has no teeth")
	}
	camp.SabotageTripped = true
	doc.Campaign = camp
	fmt.Printf("  sabotage control: broken-model plan tripped the planned-vs-debited checker\n")

	if o.out != "" {
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  planner results written to %s\n", o.out)
	}
	return nil
}
