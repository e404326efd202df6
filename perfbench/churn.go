package main

import (
	"bytes"
	"fmt"
	"time"

	"androne/internal/apps"
	"androne/internal/cloud"
	"androne/internal/core"
	"androne/internal/geo"
	"androne/internal/simharness"
)

// vdr-churn sizing: the drone holds churnVDs virtual drones whose
// containers carry churnSlots frame files of churnSlotBytes each; a cycle
// rewrites one slot, so (K-1)/K of the state is unchanged since the last
// save.
const (
	churnVDs       = 3
	churnSlots     = 16
	churnSlotBytes = 64 << 10
	// churnTailQ: a run completes some four hundred cycles, leaving
	// about forty beyond p90.
	churnTailQ = 0.90
)

func slotPath(k int) string { return fmt.Sprintf("/sdcard/frames/slot-%02d", k) }

// churnWorker is the client: a drone with its virtual drones.
type churnWorker struct {
	d     *core.Drone
	names []string
	rng   *rng
	cycle int
}

// churnFixture is the set-up state: one VDR over one blob store, shared by
// the drone's virtual drones.
type churnFixture struct {
	vdr    *cloud.VDR
	blobs  *cloud.BlobStore
	worker *churnWorker
}

// churnLayers accumulates the traced spans of the checkpoint path.
type churnLayers struct {
	save, vdrSave, vdrLoad, restor span
	checkpointB, layers            int64
}

// cycleResult is one save/load/restore cycle.
type cycleResult struct {
	end    time.Time
	wall   time.Duration
	bad    string
	traced bool
}

func churnDefinition(name, owner string) *core.Definition {
	return &core.Definition{
		Name: name, Owner: owner,
		Waypoints: []geo.Waypoint{{
			Position:  geo.Position{LatLon: geo.OffsetNE(simharness.Home.LatLon, 60, 20), Alt: 15},
			MaxRadius: 40,
		}},
		MaxDuration: 600, EnergyAllotted: 45000,
		WaypointDevices: []string{"camera"},
		Apps:            []string{apps.PhotoPackage},
	}
}

func newChurnFixture(r run) (*churnFixture, error) {
	blobs := cloud.NewBlobStore()
	f := &churnFixture{blobs: blobs, vdr: cloud.NewVDRWith(blobs, cloud.DefaultQuotas())}
	d, err := core.NewDrone(simharness.Home, fmt.Sprintf("perfbench-%s/churn-0", r.seed))
	if err != nil {
		return nil, err
	}
	apps.RegisterAll(d.VDC)
	cw := &churnWorker{d: d, rng: newRNG(fmt.Sprintf("vdr-churn/%s/0", r.seed))}
	for j := 0; j < churnVDs; j++ {
		name := fmt.Sprintf("churn-0-%d", j)
		vd, err := d.VDC.Create(churnDefinition(name, fmt.Sprintf("owner-%d", j)))
		if err != nil {
			return nil, err
		}
		buf := make([]byte, churnSlotBytes)
		for k := 0; k < churnSlots; k++ {
			cw.rng.fill(buf)
			vd.Container.WriteFile(slotPath(k), buf)
		}
		if err := vd.SDKFor(apps.PhotoPackage).MarkFileForUser(slotPath(0)); err != nil {
			return nil, err
		}
		cw.names = append(cw.names, name)
	}
	f.worker = cw
	// Prime the VDR with every virtual drone's first generation.
	for range cw.names {
		if res := f.cycle(cw, nil, nil); res.bad != "" {
			return nil, fmt.Errorf("priming cycle: %s", res.bad)
		}
	}
	return f, nil
}

// cycle rewrites one frame slot of the worker's next virtual drone, then
// saves it (VDC, then VDR), loads it back and restores it, checking that
// the loaded checkpoint is the saved one and that progress, allotment and
// marked files survive. corrupt, when set, alters the loaded entry (the
// benchmark's own tests use it).
func (f *churnFixture) cycle(cw *churnWorker, tl *churnLayers, corrupt func(*cloud.VDREntry)) cycleResult {
	d := cw.d
	name := cw.names[cw.cycle%len(cw.names)]
	cw.cycle++
	t0 := time.Now()
	vd, err := d.VDC.Get(name)
	if err != nil {
		return cycleResult{bad: err.Error()}
	}
	buf := make([]byte, churnSlotBytes)
	cw.rng.fill(buf)
	vd.Container.WriteFile(slotPath(cw.rng.intn(churnSlots)), buf)
	d.VDC.MeterActive(name, 0.01, 1)
	visited, total := vd.Progress()
	timeLeft, energyLeft := vd.Allotment.TimeLeftS(), vd.Allotment.EnergyLeftJ()
	marked := vd.MarkedFiles()

	t1 := time.Now()
	entry, err := d.VDC.Save(name)
	if err != nil {
		return cycleResult{bad: "VDC save: " + err.Error()}
	}
	t2 := time.Now()
	if err := f.vdr.Save(entry); err != nil {
		return cycleResult{bad: "VDR save: " + err.Error()}
	}
	t3 := time.Now()
	loaded, err := f.vdr.Load(name)
	t4 := time.Now()
	if err == nil && corrupt != nil {
		corrupt(&loaded)
	}
	bad := ""
	switch {
	case err != nil:
		bad = "VDR load: " + err.Error()
	case !bytes.Equal(loaded.Checkpoint, entry.Checkpoint):
		bad = "loaded checkpoint differs from the saved one"
	case !bytes.Equal(loaded.Definition, entry.Definition):
		bad = "loaded definition differs from the saved one"
	}
	if bad != "" {
		loaded = entry // keep the virtual drone alive for the next cycle
	}
	t5 := time.Now()
	restored, err := d.VDC.Restore(loaded)
	t6 := time.Now()
	if err != nil {
		return cycleResult{bad: "restore: " + err.Error()}
	}
	if bad == "" {
		v2, t2n := restored.Progress()
		switch {
		case v2 != visited || t2n != total:
			bad = fmt.Sprintf("progress %d/%d restored as %d/%d", visited, total, v2, t2n)
		case restored.Allotment.TimeLeftS() != timeLeft || restored.Allotment.EnergyLeftJ() != energyLeft:
			bad = "allotment changed across save/restore"
		case fmt.Sprint(restored.MarkedFiles()) != fmt.Sprint(marked):
			bad = "marked files changed across save/restore"
		}
	}
	if tl != nil {
		tl.save.add(t2.Sub(t1))
		tl.vdrSave.add(t3.Sub(t2))
		tl.vdrLoad.add(t4.Sub(t3))
		tl.restor.add(t6.Sub(t5))
		tl.checkpointB += int64(len(entry.Checkpoint))
		if m, err := f.vdr.Manifest(name); err == nil {
			tl.layers += int64(len(m.Layers))
		}
	}
	now := time.Now()
	return cycleResult{end: now, wall: now.Sub(t0), bad: bad, traced: tl != nil}
}

// runCycles drives the client closed-loop until end and returns the
// cycles. With tl set, every other cycle is traced, so traced and untraced
// cycles see the same store. With hs set, the host's speed is probed
// between cycles.
func (f *churnFixture) runCycles(end time.Time, tl *churnLayers, corrupt func(*cloud.VDREntry), hs *hostSpeed) []cycleResult {
	var out []cycleResult
	for i := 0; time.Now().Before(end); i++ {
		var t *churnLayers
		if i%2 == 1 {
			t = tl
		}
		out = append(out, f.cycle(f.worker, t, corrupt))
		if hs != nil {
			hs.tick()
		}
	}
	return out
}

// accountCycles adds cycles to the run's counts and returns them as
// samples.
func accountCycles(rep *report, cycles []cycleResult) []opSample {
	var ops []opSample
	reported := false
	for _, c := range cycles {
		rep.attempted++
		ops = append(ops, opSample{end: c.end, lat: c.wall})
		if c.bad != "" {
			rep.failed++
			if !reported {
				rep.fail("vdr-churn cycle: %s", c.bad)
				reported = true
			}
		}
	}
	return ops
}

func runVDRChurn(r run) (*report, error) {
	return runVDRChurnWith(r, nil)
}

// runVDRChurnWith runs the workload; corrupt, when set, alters every
// loaded entry (the benchmark's own tests use it).
func runVDRChurnWith(r run, corrupt func(*cloud.VDREntry)) (*report, error) {
	f, setupS, err := timeSetup(r.hs, func() (*churnFixture, error) { return newChurnFixture(r) })
	if err != nil {
		return nil, err
	}
	if r.trace {
		return traceVDRChurn(r, f, corrupt)
	}
	rep := newReport()
	hs := r.hs
	st0 := f.blobs.Stats()
	mem := startMem()
	cycles := f.runCycles(r.deadline(1), nil, corrupt, hs)
	allocMB, liveMB := mem.stop()
	st1 := f.blobs.Stats()

	ops := accountCycles(rep, cycles)
	n := float64(len(cycles))
	stored := float64(st1.PhysicalBytes-st0.PhysicalBytes) / 1024 / n
	rep.note("vdr-churn: one drone x %d virtual drones, %d slots of %d KiB, one slot rewritten per cycle; closed loop, one client", churnVDs, churnSlots, churnSlotBytes>>10)
	rep.noteSpeed(hs)
	rep.setPhase("cycles", ops, churnTailQ, hs)
	rep.note("stored_kb_per_save %.6g KiB (dedup ratio %.3g over the run)", stored,
		float64(st1.LogicalBytes-st0.LogicalBytes)/float64(st1.PhysicalBytes-st0.PhysicalBytes))
	rep.set("setup_s", setupS, "s")
	rep.set("alloc_mb_per_op", allocMB/n, "MB")
	rep.set("live_heap_mb", liveMB, "MB")
	return rep, nil
}

func traceVDRChurn(r run, f *churnFixture, corrupt func(*cloud.VDREntry)) (*report, error) {
	rep := newReport()
	var tl churnLayers
	st0 := f.blobs.Stats()
	gc0 := readGC()
	cycles := f.runCycles(r.deadline(1), &tl, corrupt, nil)
	gcFrac, gcCycles := gc0.since()
	st1 := f.blobs.Stats()
	accountCycles(rep, cycles)

	var plain, traced span
	for _, c := range cycles {
		if c.traced {
			traced.add(c.wall)
		} else {
			plain.add(c.wall)
		}
	}
	n := float64(tl.save.calls)
	layers := map[string]float64{
		"core.save_ms":            tl.save.perCall(time.Millisecond),
		"cloud.vdr_save_ms":       tl.vdrSave.perCall(time.Millisecond),
		"cloud.vdr_load_ms":       tl.vdrLoad.perCall(time.Millisecond),
		"core.restore_ms":         tl.restor.perCall(time.Millisecond),
		"container.checkpoint_kb": float64(tl.checkpointB) / 1024 / n,
		"cloud.blob_puts":         float64(tl.layers),
		"runtime.gc_cpu_frac":     gcFrac,
		"runtime.gc_count":        float64(gcCycles),
		"trace.coverage":          float64(tl.save.ns+tl.vdrSave.ns+tl.vdrLoad.ns+tl.restor.ns) / float64(traced.ns),
		"trace.overhead_frac":     traced.perCall(time.Nanosecond)/plain.perCall(time.Nanosecond) - 1,
	}
	// Dedup hits are counted store-wide, over traced and untraced saves
	// alike; every save puts the same number of layers.
	if tl.layers > 0 {
		layers["cloud.blob_dedup_hit_frac"] = float64(st1.DedupHits-st0.DedupHits) / (float64(tl.layers) / n * float64(len(cycles)))
	}
	rep.note("vdr-churn traced: %d cycles, every other one traced; coverage leaves out the slot rewrite and the checks", len(cycles))
	setLayers(rep, layers)
	return rep, nil
}
