package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"androne/internal/cloud"
	"androne/internal/planner"
)

// short is a run long enough for every check to see repeats; race builds
// stretch it eightfold.
func short(seconds float64) run {
	if raceBuild {
		seconds *= 8
	}
	hs, err := newHostSpeed(2)
	if err != nil {
		panic(err)
	}
	return run{seed: "test", seconds: seconds, workers: 2, hs: hs}
}

// skipUnderRace skips a tenant-open run under the race detector: its fixed
// open-loop rates are beyond what the instrumented service can serve, so
// requests are shed by design. TestOpenLoopCountsStallsAndLateness still
// drives the generator and the service handler under the detector.
func skipUnderRace(t *testing.T) {
	if raceBuild {
		t.Skip("tenant-open's fixed rates exceed the service's capacity under -race")
	}
}

// requireFailed asserts the run failed its checks for the stated reason.
func requireFailed(t *testing.T, rep *report, err error, reason string) {
	t.Helper()
	if err != nil {
		t.Fatalf("run did not complete: %v", err)
	}
	if rep.correct || rep.failed == 0 {
		t.Fatalf("sabotaged run passed: correct=%v failed=%d notes=%q", rep.correct, rep.failed, rep.notes)
	}
	for _, n := range rep.notes {
		if strings.HasPrefix(n, "CHECK FAILED") && strings.Contains(n, reason) {
			return
		}
	}
	t.Fatalf("run failed, but not because %q: %q", reason, rep.notes)
}

// requirePassed asserts an unsabotaged run passed with every end-to-end
// metric present and non-zero.
func requirePassed(t *testing.T, rep *report, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("clean run failed: attempted=%d failed=%d notes=%q", rep.attempted, rep.failed, rep.notes)
	}
	for _, m := range endToEnd {
		got, ok := rep.metrics[m.name]
		if !ok || got.Value <= 0 || got.Unit != m.unit {
			t.Errorf("metric %s = %+v, want a positive value in %s", m.name, got, m.unit)
		}
	}
}

func TestFleetSurveyChecks(t *testing.T) {
	// One caller flies some ten drones a second: six seconds repeat the
	// first of the 32 seed slots.
	rep, err := runFleetSurveyWith(short(6), nil)
	requirePassed(t, rep, err)

	// An altered hash on a repeat of slot 0 must trip the repeat check.
	var seen atomic.Int32
	rep, err = runFleetSurveyWith(short(6), func(op *droneOp) {
		if op.slot == 0 && seen.Add(1) == 2 {
			op.hash = strings.Repeat("0", len(op.hash))
		}
	})
	requireFailed(t, rep, err, "trace hash")
}

func TestFleetHashesNeedRepeats(t *testing.T) {
	rep := newReport()
	checkFleetHashes(rep, []droneOp{{slot: 0, hash: "aaaaaaaaaaaaaaaa"}, {slot: 1, hash: "bbbbbbbbbbbbbbbb"}})
	if rep.correct {
		t.Fatal("a run in which no seed repeated passed the repeatability check")
	}
}

func TestTenantOpenChecks(t *testing.T) {
	skipUnderRace(t)
	rep, err := runTenantOpenWith(short(2), nil)
	requirePassed(t, rep, err)

	// A handler that answers 500 to one request in fifty must fail the run.
	var n atomic.Int64
	rep, err = runTenantOpenWith(short(2), func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if n.Add(1)%50 == 0 {
				w.WriteHeader(http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	requireFailed(t, rep, err, "answered 500")
}

func TestTenantMixAndPolicySheds(t *testing.T) {
	f, err := newTenantFixture("mix")
	if err != nil {
		t.Fatal(err)
	}
	defer f.svc.Close()
	const n = 56000
	var got [numKinds]int
	for _, req := range f.schedule(n) {
		got[req.kind]++
	}
	for k := 0; k < numKinds; k++ {
		want := float64(kindWeights[k]) / float64(kindWeightSum)
		if share := float64(got[k]) / n; share < want-0.01 || share > want+0.01 {
			t.Errorf("%s: share %.4f, want %.4f", kindNames[k], share, want)
		}
	}

	// A shed by the per-tenant token bucket names the sizing as the cause.
	s := sample{code: http.StatusTooManyRequests}
	s.check(tenantReq{kind: kindOrders, tenant: f.tenants[0]}, []byte(`{"error":"overloaded: tenant rate limit, retry later"}`))
	if !strings.Contains(s.bad, "tenantCount") {
		t.Fatalf("policy shed reported as %q", s.bad)
	}
}

func TestOpenLoopCountsStallsAndLateness(t *testing.T) {
	f, err := newTenantFixture("stall")
	if err != nil {
		t.Fatal(err)
	}
	defer f.svc.Close()
	// The first request holds a lock every request takes for 100 ms.
	const stall = 100 * time.Millisecond
	var mu sync.Mutex
	var first atomic.Bool
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if first.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
		f.handler.ServeHTTP(w, r)
	})
	const rate = 1000.0
	reqs := f.schedule(300)
	w := openLoop(h, reqs, rate, time.Now(), 0)
	for i, s := range w.samples {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		if due < stall-10*time.Millisecond {
			// Due during the stall: served only after it ends.
			if min := stall - due - 2*time.Millisecond; s.latency < min {
				t.Fatalf("request %d due %v into a %v stall has latency %v, want >= %v", i, due, stall, s.latency, min)
			}
		}
		if s.bad != "" {
			t.Fatalf("request %d: %s", i, s.bad)
		}
	}

	// A generator started 100 ms behind its schedule of 100 requests at
	// 1000/s runs late for all of them, by 100 ms down to about 1 ms.
	w = openLoop(f.handler, f.schedule(100), rate, time.Now().Add(-100*time.Millisecond), 0)
	if late := w.samples[0].late; late < 100*time.Millisecond {
		t.Fatalf("first request's lateness %v, want >= 100ms", late)
	}
	if got := w.lateTail(); got < 50 {
		t.Fatalf("loadgen.late_ms %.3g, want about 90 ms at p%g", got, tenantTailQ*100)
	}
	if w.samples[0].latency < w.samples[0].late {
		t.Fatalf("latency %v does not include lateness %v", w.samples[0].latency, w.samples[0].late)
	}
}

func TestVDRChurnChecks(t *testing.T) {
	rep, err := runVDRChurnWith(short(1), nil)
	requirePassed(t, rep, err)

	// One flipped checkpoint byte in every loaded entry must fail the run.
	rep, err = runVDRChurnWith(short(1), func(e *cloud.VDREntry) {
		e.Checkpoint = append([]byte(nil), e.Checkpoint...)
		e.Checkpoint[len(e.Checkpoint)/2] ^= 0x01
	})
	requireFailed(t, rep, err, "loaded checkpoint differs")
}

func TestPlanLargeChecks(t *testing.T) {
	rep, err := runPlanLargeWith(short(1), nil)
	requirePassed(t, rep, err)

	// A plan missing one stop is invalid.
	rep, err = runPlanLargeWith(short(1), func(p *planner.Plan) {
		p.Routes[0].Stops = p.Routes[0].Stops[1:]
	})
	requireFailed(t, rep, err, "invalid plan")
}

func TestTracedRunsReportEveryLayer(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			if wl.name == "tenant-open" {
				skipUnderRace(t)
			}
			r := short(2)
			r.trace = true
			rep, err := wl.run(r)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct || rep.failed != 0 {
				t.Fatalf("traced run failed: %q", rep.notes)
			}
			if len(rep.metrics) != len(perLayer) {
				t.Fatalf("traced run reports %d metrics, want the %d per-layer ones", len(rep.metrics), len(perLayer))
			}
			if c := rep.metrics["trace.coverage"].Value; c < 0.9 || c > 1.0001 {
				t.Fatalf("trace.coverage %.3g, want in [0.9, 1]", c)
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric sets the
// program reports in step.
// TestHostSpeedCorrection checks that each operation is divided by the
// slowdown the probes measured around it, not by the run's overall one.
func TestHostSpeedCorrection(t *testing.T) {
	t0 := time.Now()
	h := &hostSpeed{}
	for i := 0; i < 40; i++ {
		probe := refProbeMs
		if i >= 20 {
			probe = 2 * refProbeMs // the host runs at half speed from 20 s on
		}
		h.at = append(h.at, t0.Add(time.Duration(i)*time.Second))
		h.ms = append(h.ms, probe)
	}
	if got := h.slowdownAt(t0.Add(5 * time.Second)); got != 1 {
		t.Errorf("slowdown at 5 s = %g, want 1", got)
	}
	if got := h.slowdownAt(t0.Add(35 * time.Second)); got != 2 {
		t.Errorf("slowdown at 35 s = %g, want 2", got)
	}
	// 100 ms operations in the fast half, 200 ms ones in the slow half:
	// the same work, so every corrected latency is 100 ms.
	var ops []opSample
	for i := 0; i < 10; i++ {
		ops = append(ops, opSample{end: t0.Add(time.Duration(2+i) * time.Second), lat: 100 * time.Millisecond})
		ops = append(ops, opSample{end: t0.Add(time.Duration(26+i) * time.Second), lat: 200 * time.Millisecond})
	}
	st := summarize(ops, 0.9, h)
	if st.p50 != 100 || st.tail != 100 || st.opsPerS != 10 {
		t.Errorf("corrected figures = %+v, want p50 and tail 100 ms at 10 ops/s", st)
	}
	if raw := summarize(ops, 0.9, nil); raw.p50 != 150 || raw.tail != 200 {
		t.Errorf("measured figures = %+v, want p50 150 ms and tail 200 ms", raw)
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, a []struct{ Name, Unit string }, b []struct{ name, unit string }) {
		if len(a) != len(b) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(a), len(b))
		}
		for i := range a {
			if a[i].Name != b[i].name || a[i].Unit != b[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, program %s/%s", kind, i, a[i].Name, a[i].Unit, b[i].name, b[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
