package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path"
	"time"

	"androne/internal/apps"
	"androne/internal/core"
	"androne/internal/fleet"
	"androne/internal/flight"
	"androne/internal/geo"
	"androne/internal/mavlink"
	"androne/internal/sdk"
	"androne/internal/simharness"
)

// fleetSeeds is how many distinct drone seeds fleet-survey cycles through.
// Every seed flies several times per run, so each repeat is checked
// against the seed's first trace hash.
const fleetSeeds = 32

// fleetTailQ is fleet-survey's tail percentile: a run flies some four
// hundred drones, leaving about forty beyond p90.
const fleetTailQ = 0.90

// fleetScenario is the scenario every fleet-survey drone flies.
const fleetScenario = "survey-baseline"

// fleetSeed is the fleet seed of drone slot i; fleet.Run derives the drone
// seed fleet.DroneSeed(fleetSeed, 0) from it.
func fleetSeed(seed string, i int) string {
	return fmt.Sprintf("perfbench-%s/slot-%02d", seed, i)
}

// droneOp is one drone run's outcome.
type droneOp struct {
	slot  int
	end   time.Time
	wall  time.Duration
	simS  float64
	hash  string
	ticks int
	err   string
}

// flyDrone runs one drone through fleet.Run.
func flyDrone(seed string, slot int) droneOp {
	t0 := time.Now()
	sum, err := fleet.Run(fleet.Config{Drones: 1, Workers: 1, Seed: fleetSeed(seed, slot), Scenario: fleetScenario})
	op := droneOp{slot: slot, end: time.Now()}
	op.wall = op.end.Sub(t0)
	switch {
	case err != nil:
		op.err = err.Error()
	case !sum.Passed():
		op.err = fmt.Sprintf("drone did not pass: %+v", sum.Results[0])
	default:
		res := sum.Results[0]
		op.hash = res.TraceHash
		op.ticks = res.Ticks
		op.simS = float64(res.Ticks) * simharness.TickS
	}
	return op
}

// checkFleetHashes verifies every drone passed and every repeat of a slot
// reproduced the slot's first trace hash. It returns the first hash per
// slot and the number of failed operations.
func checkFleetHashes(rep *report, ops []droneOp) (first map[int]string, failed int64) {
	first = make(map[int]string)
	repeats := 0
	for _, op := range ops {
		if op.err != "" {
			failed++
			rep.fail("slot %d: %s", op.slot, op.err)
			continue
		}
		h, seen := first[op.slot]
		if !seen {
			first[op.slot] = op.hash
			continue
		}
		repeats++
		if h != op.hash {
			failed++
			rep.fail("slot %d: trace hash %s differs from the slot's first run %s", op.slot, op.hash[:12], h[:12])
		}
	}
	if repeats == 0 && len(ops) > 0 {
		rep.fail("no drone seed flew twice, so trace-hash repeatability went unchecked")
	}
	return first, failed
}

// hashDigest folds per-slot hashes, in slot order, into one printable
// digest so runs of the same seed can be compared at a glance.
func hashDigest(first map[int]string) string {
	h := sha256.New()
	for i := 0; i < fleetSeeds; i++ {
		fmt.Fprintf(h, "%d=%s\n", i, first[i])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func runFleetSurvey(r run) (*report, error) {
	return runFleetSurveyWith(r, nil)
}

// runFleetSurveyWith runs the workload; alter, when set, changes each
// drone's outcome before it is checked (the benchmark's own tests use it).
func runFleetSurveyWith(r run, alter func(*droneOp)) (*report, error) {
	if r.trace {
		return traceFleetSurvey(r)
	}
	rep := newReport()
	// Set-up flies one warm-up drone so lazily built state (telemetry key
	// interning, app registries) is in place before timing.
	_, setupS, err := timeSetup(r.hs, func() (droneOp, error) {
		op := flyDrone(r.seed, 0)
		if op.err != "" {
			return op, fmt.Errorf("warm-up drone: %s", op.err)
		}
		return op, nil
	})
	if err != nil {
		return nil, err
	}

	// One caller flies the drones one after another: a second busy
	// thread on a small shared host makes the figures depend on the
	// scheduler, and the other CPU is left to the garbage collector.
	hs := r.hs
	mem := startMem()
	start := time.Now()
	end := r.deadline(1)
	var ops []droneOp
	for i := 0; time.Now().Before(end); i++ {
		ops = append(ops, flyDrone(r.seed, i%fleetSeeds))
		hs.tick()
	}
	wall := time.Since(start) - hs.spent
	allocMB, liveMB := mem.stop()

	if alter != nil {
		for i := range ops {
			alter(&ops[i])
		}
	}
	first, failed := checkFleetHashes(rep, ops)
	samples := make([]opSample, len(ops))
	var simS float64
	for i, op := range ops {
		samples[i] = opSample{end: op.end, lat: op.wall}
		simS += op.simS
	}
	n := float64(len(ops))
	rep.attempted, rep.failed = int64(len(ops)), failed
	rep.note("fleet-survey: %d drones of %s via fleet.Run, one caller, %d seed slots", len(ops), fleetScenario, fleetSeeds)
	rep.noteSpeed(hs)
	rep.setPhase("drone runs", samples, fleetTailQ, hs)
	rep.note("trace-hash digest %s over %d slots", hashDigest(first), len(first))
	rep.note("sim_s_per_s %.6g drone-s/s", simS/wall.Seconds())
	rep.set("setup_s", setupS, "s")
	rep.set("alloc_mb_per_op", allocMB/n, "MB")
	rep.set("live_heap_mb", liveMB, "MB")
	return rep, nil
}

// ---------------------------------------------------------------------------
// Traced drone-tick probe

// tickLayers accumulates the probe's per-layer wall time and call counts.
type tickLayers struct {
	sitl, flight, mavproxy, binder, telemetry, vdc span
}

// span is one layer's accumulated self time and call count.
type span struct {
	ns    int64
	calls int64
}

func (s *span) add(d time.Duration) {
	s.ns += int64(d)
	s.calls++
}

// perCall returns the mean time per call in the given unit.
func (s span) perCall(unit time.Duration) float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.calls) / float64(unit)
}

// probe flies the survey-baseline mission on a bare core.Drone, calling
// the layer handles in the order core.Drone.StepSeconds does. With a nil
// tl it runs untimed: the overhead reference.
type probe struct {
	d    *core.Drone
	env  *core.CloudEnv
	tl   *tickLayers
	tick int
	// breachOpen mirrors the harness's breach relay.
	breachOpen bool
}

// surveyDefinition is the survey-baseline scenario's virtual drone, built
// the way the harness builds it from the scenario spec.
func surveyDefinition() (*core.Definition, error) {
	sc := simharness.ByName(fleetScenario)
	if sc == nil || len(sc.Drones) != 1 {
		return nil, fmt.Errorf("scenario %q: want one virtual drone", fleetScenario)
	}
	spec := sc.Drones[0]
	def := &core.Definition{
		Name: spec.Name, Owner: spec.Owner,
		MaxDuration: spec.MaxDurationS, EnergyAllotted: spec.EnergyJ,
		Apps: spec.Apps, AppArgs: spec.AppArgs,
		WaypointDevices: spec.WaypointDevices, ContinuousDevices: spec.ContinuousDevices,
	}
	if def.WaypointDevices == nil {
		def.WaypointDevices = []string{"camera", sdk.FlightControlDevice}
	}
	for _, w := range spec.Waypoints {
		def.Waypoints = append(def.Waypoints, geo.Waypoint{
			Position:  geo.Position{LatLon: geo.OffsetNE(simharness.Home.LatLon, w.NorthM, w.EastM), Alt: w.AltM},
			MaxRadius: w.RadiusM,
		})
	}
	return def, nil
}

// step advances one harness tick (TickS of sim time at the fast-loop
// rate), as core.Drone.StepSeconds does.
func (p *probe) step() {
	d := p.d
	steps := int(simharness.TickS * flight.FastLoopHz)
	if p.tl == nil {
		for i := 0; i < steps; i++ {
			d.Sim.Step(flight.FastLoopDT)
			d.FC.Step(flight.FastLoopDT)
			r, pi, y := d.Sim.Attitude()
			d.FC.RecordTruth(r, pi, y)
			if i%40 == 0 {
				d.Tel.AdvanceTick()
				d.Proxy.Tick()
				d.Driver.FlushMetrics()
			}
		}
		p.tick++
		return
	}
	tl := p.tl
	t := time.Now()
	for i := 0; i < steps; i++ {
		d.Sim.Step(flight.FastLoopDT)
		t1 := time.Now()
		tl.sitl.add(t1.Sub(t))
		// Ground-truth recording reads the sim's attitude; it is the
		// flight controller's AED input, so it counts as flight.
		d.FC.Step(flight.FastLoopDT)
		r, pi, y := d.Sim.Attitude()
		d.FC.RecordTruth(r, pi, y)
		t = time.Now()
		tl.flight.add(t.Sub(t1))
		if i%40 == 0 {
			d.Tel.AdvanceTick()
			t1 = time.Now()
			tl.telemetry.add(t1.Sub(t))
			d.Proxy.Tick()
			t = time.Now()
			tl.mavproxy.add(t.Sub(t1))
			d.Driver.FlushMetrics()
			t1 = time.Now()
			tl.binder.add(t1.Sub(t))
			t = t1
		}
	}
	p.tick++
}

// vdc times one VDC call into the core.vdc_tick layer.
func (p *probe) vdc(f func()) {
	if p.tl == nil {
		f()
		return
	}
	t := time.Now()
	f()
	p.tl.vdc.add(time.Since(t))
}

// relay forwards geofence breach transitions to the VDC, as the harness
// does every tick.
func (p *probe) relay(name string) {
	vd, err := p.d.VDC.Get(name)
	if err != nil {
		return
	}
	rec := vd.VFC.Recovering()
	if rec && !p.breachOpen {
		p.breachOpen = true
		p.vdc(func() { p.d.VDC.NotifyBreach(name) })
	} else if !rec && p.breachOpen {
		p.breachOpen = false
		p.vdc(func() { p.d.VDC.NotifyControlReturned(name) })
	}
}

// probeResult is what one probe mission did.
type probeResult struct {
	ticks       int
	reached     bool
	landed      bool
	saved       bool
	checkpointB int
}

// fly runs the survey-baseline mission: takeoff, transit, grant, dwell
// with app ticks and metering, leave, RTL, offload and VDR save.
func (p *probe) fly(def *core.Definition) (probeResult, error) {
	var res probeResult
	d := p.d
	name := def.Name
	master := d.Proxy.Master().Controller()
	p.step() // let the estimator acquire a fix
	p.relay(name)
	if err := master.SetModeNum(mavlink.ModeGuided); err != nil {
		return res, err
	}
	if err := master.Arm(); err != nil {
		return res, err
	}
	if err := master.Takeoff(core.TransitAltM); err != nil {
		return res, err
	}
	for i := 0; i < int(60/simharness.TickS); i++ {
		p.step()
		p.relay(name)
		if d.Sim.AltitudeAGL() > core.TransitAltM-0.6 {
			break
		}
	}
	if d.Sim.AltitudeAGL() <= core.TransitAltM-0.6 {
		return res, fmt.Errorf("takeoff did not complete")
	}

	vd, err := d.VDC.Get(name)
	if err != nil {
		return res, err
	}
	for idx, wp := range vd.Def.Waypoints {
		if err := master.SetModeNum(mavlink.ModeGuided); err != nil {
			return res, err
		}
		if err := master.GotoPosition(wp.Position, 0); err != nil {
			return res, err
		}
		timeout := geo.Distance3D(d.Sim.Position(), wp.Position)/2 + 30
		reached := false
		for elapsed := 0.0; elapsed < timeout; elapsed += simharness.TickS {
			p.step()
			p.relay(name)
			p.vdc(func() { d.VDC.TickTransit(simharness.TickS) })
			if geo.Distance3D(d.Sim.Position(), wp.Position) < 2 {
				reached = true
				break
			}
		}
		if !reached {
			return res, fmt.Errorf("waypoint %d not reached", idx)
		}
		res.reached = true
		if err := d.VDC.WaypointReached(name, idx); err != nil {
			return res, err
		}
		dwellCap := 20.0*3 + 30
		lastEnergy := d.Sim.EnergyUsedJ()
		for elapsed := 0.0; elapsed < dwellCap; elapsed += simharness.TickS {
			p.step()
			p.relay(name)
			exhausted := false
			p.vdc(func() {
				d.VDC.TickActive(name, simharness.TickS)
				energyNow := d.Sim.EnergyUsedJ()
				exhausted = d.VDC.MeterActive(name, simharness.TickS, energyNow-lastEnergy)
				lastEnergy = energyNow
			})
			if exhausted || vd.CompleteRequested() {
				break
			}
		}
		if err := d.VDC.WaypointLeft(name, idx); err != nil {
			return res, err
		}
	}

	if err := master.SetModeNum(mavlink.ModeRTL); err != nil {
		return res, err
	}
	for elapsed := 0.0; elapsed < 240; elapsed += simharness.TickS {
		p.step()
		p.relay(name)
		if d.Sim.OnGround() && !master.Armed() {
			break
		}
	}
	res.landed = d.Sim.OnGround()

	for _, f := range vd.MarkedFiles() {
		data, err := vd.Container.ReadFile(f)
		if err != nil {
			return res, err
		}
		if err := p.env.Storage.Put(def.Owner, path.Join("/", name, f), data); err != nil {
			return res, err
		}
	}
	entry, err := d.VDC.Save(name)
	if err != nil {
		return res, err
	}
	if err := p.env.VDR.Save(entry); err != nil {
		return res, err
	}
	res.saved = true
	res.checkpointB = len(entry.Checkpoint)
	res.ticks = p.tick
	return res, nil
}

// newProbe boots a drone for one probe mission with the seed the untraced
// workload's drone in the same slot flies under.
func newProbe(seed string, slot int, def *core.Definition, tl *tickLayers) (*probe, error) {
	d, err := core.NewDrone(simharness.Home, fleet.DroneSeed(fleetSeed(seed, slot), 0))
	if err != nil {
		return nil, err
	}
	apps.RegisterAll(d.VDC)
	if _, err := d.VDC.Create(def); err != nil {
		return nil, err
	}
	return &probe{d: d, env: core.NewCloudEnv(), tl: tl}, nil
}

func traceFleetSurvey(r run) (*report, error) {
	rep := newReport()
	def, err := surveyDefinition()
	if err != nil {
		return nil, err
	}
	// Reference ticks per slot from the real scenario runner: the probe
	// must fly the same mission tick for tick.
	refTicks := make(map[int]int)

	mission := func(slot int, tl *tickLayers) (time.Duration, probeResult, error) {
		p, err := newProbe(r.seed, slot, def, tl)
		if err != nil {
			return 0, probeResult{}, err
		}
		t0 := time.Now()
		res, err := p.fly(def)
		return time.Since(t0), res, err
	}
	check := func(slot int, res probeResult, err error) {
		rep.attempted++
		switch {
		case err != nil:
			rep.failed++
			rep.fail("probe slot %d: %v", slot, err)
		case !res.reached || !res.landed || !res.saved:
			rep.failed++
			rep.fail("probe slot %d: reached=%v landed=%v saved=%v", slot, res.reached, res.landed, res.saved)
		}
		if want, ok := refTicks[slot]; ok && err == nil && res.ticks != want {
			rep.failed++
			rep.fail("probe slot %d flew %d ticks, the scenario runner %d", slot, res.ticks, want)
		}
	}
	// Missions alternate untraced and traced on the same slot, so both
	// halves fly the same missions under the same conditions.
	var plain, traced span
	var tl tickLayers
	var ckptB int
	gc0 := readGC()
	end := r.deadline(1)
	for slot := 0; time.Now().Before(end) || traced.calls == 0; slot++ {
		s := slot % fleetSeeds
		if _, ok := refTicks[s]; !ok {
			op := flyDrone(r.seed, s)
			if op.err != "" {
				return nil, fmt.Errorf("reference run: %s", op.err)
			}
			refTicks[s] = op.ticks
		}
		wall, res, err := mission(s, nil)
		check(s, res, err)
		plain.add(wall)
		wall, res, err = mission(s, &tl)
		check(s, res, err)
		traced.add(wall)
		ckptB = res.checkpointB
	}
	gcFrac, gcCycles := gc0.since()

	layers := map[string]float64{}
	wall := float64(traced.ns)
	put := func(prefix, perCall string, s span, unit time.Duration) {
		layers[prefix+"."+perCall] = s.perCall(unit)
		layers[prefix+".calls"] = float64(s.calls)
		layers[prefix+".share"] = float64(s.ns) / wall
	}
	put("sitl", "step_ns", tl.sitl, time.Nanosecond)
	put("flight", "step_ns", tl.flight, time.Nanosecond)
	put("mavproxy", "tick_ns", tl.mavproxy, time.Nanosecond)
	put("binder", "flush_ns", tl.binder, time.Nanosecond)
	put("telemetry", "tick_ns", tl.telemetry, time.Nanosecond)
	layers["core.vdc_tick_us"] = tl.vdc.perCall(time.Microsecond)
	layers["core.vdc_tick.calls"] = float64(tl.vdc.calls)
	layers["core.vdc_tick.share"] = float64(tl.vdc.ns) / wall
	layers["runtime.gc_cpu_frac"] = gcFrac
	layers["runtime.gc_count"] = float64(gcCycles)
	covered := tl.sitl.ns + tl.flight.ns + tl.mavproxy.ns + tl.binder.ns + tl.telemetry.ns + tl.vdc.ns
	layers["trace.coverage"] = float64(covered) / wall
	layers["trace.overhead_frac"] = traced.perCall(time.Nanosecond)/plain.perCall(time.Nanosecond) - 1
	rep.note("fleet-survey traced: %d probe missions untraced and %d traced, alternating; checkpoint %d B", plain.calls, traced.calls, ckptB)
	setLayers(rep, layers)
	return rep, nil
}
