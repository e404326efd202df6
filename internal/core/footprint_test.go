package core

import (
	"runtime"
	"testing"

	"androne/internal/mavlink"
)

// footprintSlackBytes is how much a hovering drone's retained heap may
// differ between 1x and 10x the hover time: a few stray allocations, far
// below what retaining the 400 Hz flight log (64 bytes per sample) would
// add over the extra time.
const footprintSlackBytes = 256 << 10

// retainedHeap reports the bytes still reachable after a full collection.
func retainedHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestHoverFootprintBounded is the bounded-footprint contract: no
// per-drone structure grows with flight length. One drone hovers for a
// fixed time, then for nine times as long again; its retained heap must
// stay within footprintSlackBytes.
func TestHoverFootprintBounded(t *testing.T) {
	d := newTestDrone(t)
	d.StepSeconds(0.5) // settle the estimator before arming
	if err := d.FC.SetModeNum(mavlink.ModeGuided); err != nil {
		t.Fatal(err)
	}
	if err := d.FC.Arm(); err != nil {
		t.Fatal(err)
	}
	if err := d.FC.Takeoff(TransitAltM); err != nil {
		t.Fatal(err)
	}
	const hoverS = 20.0
	d.StepSeconds(hoverS)
	h1 := retainedHeap()
	d.StepSeconds(9 * hoverS)
	h10 := retainedHeap()
	if d.Sim.AltitudeAGL() < TransitAltM/2 {
		t.Fatalf("drone at %.1f m AGL, not hovering; the footprint went unmeasured", d.Sim.AltitudeAGL())
	}
	runtime.KeepAlive(d)
	growth := int64(h10) - int64(h1)
	t.Logf("retained heap %d B after %.0f s, %d B after %.0f s (%+d B)", h1, hoverS, h10, 10*hoverS, growth)
	if growth > footprintSlackBytes {
		t.Fatalf("retained heap grew %d B from %.0f s to %.0f s of hover, over the %d B slack",
			growth, hoverS, 10*hoverS, footprintSlackBytes)
	}
}

// TestRestoreChurnFootprintBounded is the same contract for the VDR
// lifecycle: a virtual drone saved and restored over and over on one drone
// must leave nothing behind per cycle. The dead namespace's death links
// and the device container ServiceManager's handles to each generation's
// ActivityManager must be released, so their counts and the retained heap
// stay flat from 1x to 10x the cycles.
func TestRestoreChurnFootprintBounded(t *testing.T) {
	d := newTestDrone(t)
	const name = "churn"
	if _, err := d.VDC.Create(defWith(name, 2)); err != nil {
		t.Fatal(err)
	}
	sm := d.DevCon.Instance().ServiceManager().Proc()
	cycle := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			entry, err := d.VDC.Save(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.VDC.Restore(entry); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Enough cycles for the flight recorder's bounded structures — its
	// 64-dump archive (one dump per save) and the event rings each dump
	// snapshots — to fill before the first measurement.
	const cycles = 400
	cycle(cycles)
	h1, links1, handles1 := retainedHeap(), d.Driver.DeathLinks(), sm.Handles()
	cycle(9 * cycles)
	h10, links10, handles10 := retainedHeap(), d.Driver.DeathLinks(), sm.Handles()
	runtime.KeepAlive(d)
	growth := int64(h10) - int64(h1)
	t.Logf("after %d and %d cycles: retained heap %d -> %d B (%+d B), death links %d -> %d, devcon handles %d -> %d",
		cycles, 10*cycles, h1, h10, growth, links1, links10, handles1, handles10)
	if links10 != links1 {
		t.Errorf("death links grew from %d to %d over %d cycles", links1, links10, 9*cycles)
	}
	if handles10 != handles1 {
		t.Errorf("device container ServiceManager handles grew from %d to %d over %d cycles", handles1, handles10, 9*cycles)
	}
	if growth > footprintSlackBytes {
		t.Errorf("retained heap grew %d B over %d cycles, over the %d B slack", growth, 9*cycles, footprintSlackBytes)
	}
}
