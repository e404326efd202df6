// Allocation budget for the 400 Hz fast loop. One Controller.Step — the
// sensor reads, estimator, control math, and motor write — must not
// allocate: a per-step allocation at fleet scale turns into GC pressure
// that shows up as missed control deadlines, and androne-vet's hotpath
// analyzer enforces the same contract statically. This test pins the
// budget at zero so the two checks vouch for each other.

package flight

import (
	"testing"

	"androne/internal/geo"
	"androne/internal/mavlink"
)

// flyingVehicle returns a vehicle armed, guided and climbing, so the full
// estimator and position controller run on every step.
func flyingVehicle(t *testing.T, opts ...Option) *Vehicle {
	t.Helper()
	home := geo.Position{LatLon: geo.LatLon{Lat: 47.397742, Lon: 8.545594}, Alt: 488}
	v := NewVehicle(home, "alloc-test", opts...)
	v.StepSeconds(0.5) // settle the estimator
	c := v.Controller
	if err := c.SetModeNum(mavlink.ModeGuided); err != nil {
		t.Fatal(err)
	}
	if err := c.Arm(); err != nil {
		t.Fatal(err)
	}
	if err := c.Takeoff(10); err != nil {
		t.Fatal(err)
	}
	v.StepSeconds(2) // climb into a working flight state
	return v
}

// TestStepZeroAlloc pins one fast-loop step (armed, guided, mid-flight, so
// the full estimator and position controller run) at 0 allocs/op.
func TestStepZeroAlloc(t *testing.T) {
	v := flyingVehicle(t)
	c := v.Controller
	allocs := testing.AllocsPerRun(1000, func() {
		v.Sim.Step(FastLoopDT)
		c.Step(FastLoopDT)
	})
	if allocs != 0 {
		t.Fatalf("fast-loop step allocated %.1f/op, want 0", allocs)
	}
}

// TestLoggedStepZeroAlloc pins the same step with a flight log attached
// and ground truth recorded, as every core.Drone runs it: the AED fold
// must not allocate however long the flight.
func TestLoggedStepZeroAlloc(t *testing.T) {
	log := NewLog()
	v := flyingVehicle(t, WithLog(log))
	c := v.Controller
	before := log.Len()
	allocs := testing.AllocsPerRun(1000, func() {
		v.Sim.Step(FastLoopDT)
		c.Step(FastLoopDT)
		r, p, y := v.Sim.Attitude()
		c.RecordTruth(r, p, y)
	})
	if allocs != 0 {
		t.Fatalf("logged fast-loop step allocated %.1f/op, want 0", allocs)
	}
	if log.Len() <= before {
		t.Fatal("log recorded nothing; the logged path went unmeasured")
	}
}
