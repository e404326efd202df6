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
