package main

import (
	"fmt"
	"reflect"
	"time"

	"androne/internal/geo"
	"androne/internal/planner"
	"androne/internal/simharness"
)

// plan-large sizing: planInstances seed-derived instances of planStops
// stops each, planned in turn with the fleet and restart settings below.
const (
	planInstances = 4
	planStops     = 1000
	planFleet     = 4
	planRestarts  = 8
	// planTailQ: a run on two CPUs makes some two hundred plans, leaving
	// about twenty beyond p90.
	planTailQ = 0.90
)

// planInstance builds one instance: tasks of one to three waypoints in a
// 2 km box around home, about a third of the multi-waypoint tasks ordered,
// exactly planStops stops in all.
func planInstance(r *rng, idx int) []planner.Task {
	var tasks []planner.Task
	for stops := 0; stops < planStops; {
		n := 1 + r.intn(3)
		if stops+n > planStops {
			n = planStops - stops
		}
		t := planner.Task{
			ID:        fmt.Sprintf("i%d-t%04d", idx, len(tasks)),
			EnergyJ:   1500 + r.float()*4000,
			DurationS: 20 + r.float()*60,
			Ordered:   n > 1 && r.intn(3) == 0,
		}
		for w := 0; w < n; w++ {
			t.Waypoints = append(t.Waypoints, geo.Waypoint{
				Position:  geo.Position{LatLon: geo.OffsetNE(simharness.Home.LatLon, r.float()*2000-1000, r.float()*2000-1000), Alt: 15},
				MaxRadius: 40,
			})
		}
		tasks = append(tasks, t)
		stops += n
	}
	return tasks
}

// planFixture is the set-up state: instances, the planner config, and
// instance 0 planned with one worker, which every later plan of instance 0
// must equal bit for bit.
type planFixture struct {
	cfg       planner.Config
	instances [][]planner.Task
	serial0   *planner.Plan
}

func newPlanFixture(r run) (*planFixture, error) {
	cfg := planner.DefaultConfig(simharness.Home)
	cfg.FleetSize = planFleet
	cfg.Restarts = planRestarts
	cfg.Workers = r.workers
	cfg.Seed = "perfbench-" + r.seed
	f := &planFixture{cfg: cfg}
	g := newRNG("plan-large/" + r.seed)
	for i := 0; i < planInstances; i++ {
		f.instances = append(f.instances, planInstance(g, i))
	}
	serial := cfg
	serial.Workers = 1
	p, err := serial.Plan(f.instances[0])
	if err != nil {
		return nil, fmt.Errorf("instance 0 with one worker: %w", err)
	}
	f.serial0 = p
	return f, nil
}

// planChecker holds each instance's first plan so repeats can be compared
// bit for bit.
type planChecker struct {
	f     *planFixture
	first map[int]*planner.Plan
	// tamper, when set, alters each plan before it is checked (the
	// benchmark's own tests use it).
	tamper func(*planner.Plan)
}

// check validates instance k's plan p (or its planning error) and
// compares it with the instance's first plan.
func (c *planChecker) check(k int, p *planner.Plan, err error) string {
	if err != nil {
		return fmt.Sprintf("instance %d: %v", k, err)
	}
	if c.tamper != nil {
		c.tamper(p)
	}
	if err := p.Validate(c.f.cfg, c.f.instances[k]); err != nil {
		return fmt.Sprintf("instance %d: invalid plan: %v", k, err)
	}
	if prev, ok := c.first[k]; ok {
		if !reflect.DeepEqual(prev, p) {
			return fmt.Sprintf("instance %d: plan differs from the instance's first plan", k)
		}
	} else {
		c.first[k] = p
	}
	return ""
}

// planLoop plans instances in turn until end, checking each plan as it
// comes (so no plan but each instance's first stays live) and adding it
// to the run's counts. each, when set, gets every plan's Plan time and the
// time of its whole loop step, check included. It returns the plans as
// samples.
func (c *planChecker) planLoop(rep *report, end time.Time, each func(i int, wall, step time.Duration)) []opSample {
	f := c.f
	var ops []opSample
	reported := false
	for i := 0; time.Now().Before(end); i++ {
		k := i % len(f.instances)
		t0 := time.Now()
		p, err := f.cfg.Plan(f.instances[k])
		done := time.Now()
		wall := done.Sub(t0)
		ops = append(ops, opSample{end: done, lat: wall})
		rep.attempted++
		if bad := c.check(k, p, err); bad != "" {
			rep.failed++
			if !reported {
				rep.fail("%s", bad)
				reported = true
			}
		}
		if each != nil {
			each(i, wall, time.Since(t0))
		}
	}
	return ops
}

// finishChecks plans any instance the timed phase did not reach, requires
// instance 0's plan to equal the one-worker plan from set-up, and returns
// the total plan energy over all instances.
func (c *planChecker) finishChecks(rep *report) float64 {
	f := c.f
	for k := range f.instances {
		if _, ok := c.first[k]; !ok {
			p, err := f.cfg.Plan(f.instances[k])
			if bad := c.check(k, p, err); bad != "" {
				rep.fail("%s", bad)
				return 0
			}
		}
	}
	if !reflect.DeepEqual(f.serial0, c.first[0]) {
		rep.fail("instance 0: plan with one worker differs from the plan with %d", f.cfg.Workers)
	}
	var cost float64
	for k := range f.instances {
		cost += c.first[k].TotalEnergyJ()
	}
	return cost
}

func runPlanLarge(r run) (*report, error) {
	return runPlanLargeWith(r, nil)
}

// runPlanLargeWith runs the workload; tamper, when set, alters every plan
// before it is checked (the benchmark's own tests use it).
func runPlanLargeWith(r run, tamper func(*planner.Plan)) (*report, error) {
	f, setupS, err := timeSetup(r.hs, func() (*planFixture, error) { return newPlanFixture(r) })
	if err != nil {
		return nil, err
	}
	c := &planChecker{f: f, first: make(map[int]*planner.Plan), tamper: tamper}
	if r.trace {
		return tracePlanLarge(r, f, c)
	}
	rep := newReport()
	hs := r.hs
	mem := startMem()
	ops := c.planLoop(rep, r.deadline(1), func(int, time.Duration, time.Duration) { hs.tick() })
	allocMB, liveMB := mem.stop()

	cost := c.finishChecks(rep)
	n := float64(len(ops))
	rep.note("plan-large: %d instances of %d stops, fleet %d, %d restarts, %d workers, %d iterations per chain; closed, sequential",
		planInstances, planStops, planFleet, planRestarts, f.cfg.Workers, f.cfg.Iterations)
	rep.noteSpeed(hs)
	rep.setPhase("plans", ops, planTailQ, hs)
	rep.note("plan_cost %.17g J (sum over the %d instances; repeats exactly for a seed)", cost, planInstances)
	rep.set("setup_s", setupS, "s")
	rep.set("alloc_mb_per_op", allocMB/n, "MB")
	rep.set("live_heap_mb", liveMB, "MB")
	return rep, nil
}

func tracePlanLarge(r run, f *planFixture, c *planChecker) (*report, error) {
	rep := newReport()
	// Plans alternate between untraced and traced. The traced ones time
	// each Plan call as the planner layer against the wall of the loop
	// step around it (planning, checking, bookkeeping).
	var plain, traced, steps span
	gc0 := readGC()
	c.planLoop(rep, r.deadline(0.8), func(i int, wall, step time.Duration) {
		if i%2 == 0 {
			plain.add(wall)
			return
		}
		traced.add(wall)
		steps.add(step)
	})
	gcFrac, gcCycles := gc0.since()
	c.finishChecks(rep)

	// The kernel's cost per move: one chain of the plan's length on
	// instance 0 less a one-iteration chain, so problem set-up and the
	// greedy seed cancel out. Each is timed three times, the fastest kept.
	chainNs := func(iters int) float64 {
		cfg := f.cfg
		cfg.Iterations = iters
		best := time.Duration(0)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			cfg.KernelAnneal(f.instances[0])
			if d := time.Since(t0); best == 0 || d < best {
				best = d
			}
		}
		return float64(best)
	}
	iters := f.cfg.Iterations
	if iters <= 0 {
		iters = 20000
	}
	perMove := (chainNs(iters) - chainNs(1)) / float64(iters-1)
	meanPlan := traced.perCall(time.Nanosecond)
	layers := map[string]float64{
		"planner.plan_ms":            traced.perCall(time.Millisecond),
		"planner.kernel_ns_per_move": perMove,
		// Chain time over plan time: how much of the restart pool's
		// capacity the annealing moves use, set-up and extraction being
		// the serial rest.
		"planner.restart_efficiency": float64(planRestarts) * perMove * float64(iters) / (float64(f.cfg.Workers) * meanPlan),
		"runtime.gc_cpu_frac":        gcFrac,
		"runtime.gc_count":           float64(gcCycles),
		"trace.coverage":             float64(traced.ns) / float64(steps.ns),
		"trace.overhead_frac":        meanPlan/plain.perCall(time.Nanosecond) - 1,
	}
	rep.note("plan-large traced: %d plans, every other one traced; %d iterations per chain", plain.calls+traced.calls, iters)
	setLayers(rep, layers)
	return rep, nil
}
