package flight

import (
	"math"
	"testing"
)

// referenceAED is the AED analysis over a retained slice of samples, the
// form the streaming Log must reproduce bit for bit.
func referenceAED(samples []Sample) AEDResult {
	res := AEDResult{Pass: true}
	excursionStart := -1.0
	for _, s := range samples {
		if !s.HasTruth {
			continue
		}
		div := math.Max(angDiffDeg(s.EstRoll, s.TrueRoll),
			math.Max(angDiffDeg(s.EstPitch, s.TruePitch), angDiffDeg(s.EstYaw, s.TrueYaw)))
		if div > res.MaxDivergenceDeg {
			res.MaxDivergenceDeg = div
		}
		if div > AEDThresholdDeg {
			if excursionStart < 0 {
				excursionStart = s.T
			}
			if dur := s.T - excursionStart; dur > res.LongestExcursionS {
				res.LongestExcursionS = dur
			}
		} else {
			excursionStart = -1
		}
	}
	if res.LongestExcursionS > AEDThresholdSec {
		res.Pass = false
	}
	return res
}

// recordedSamples flies a vehicle and records its estimate against the
// sim attitude, then perturbs the estimate: an 8° pitch error held for
// 0.8 s (past both AED thresholds), a 6° yaw error held for 0.2 s, and
// every 37th sample left without ground truth.
func recordedSamples(t *testing.T) []Sample {
	t.Helper()
	v := flyingVehicle(t)
	c := v.Controller
	const deg = math.Pi / 180
	var out []Sample
	for i := 0; i < 1600; i++ {
		v.Sim.Step(FastLoopDT)
		c.Step(FastLoopDT)
		r, p, y := v.Sim.Attitude()
		s := Sample{T: c.timeS, EstRoll: c.estRoll, EstPitch: c.estPitch, EstYaw: c.estYaw}
		if i%37 != 0 {
			s.TrueRoll, s.TruePitch, s.TrueYaw, s.HasTruth = r, p, y, true
		}
		if i >= 200 && i < 520 {
			s.EstPitch += 8 * deg
		}
		if i >= 900 && i < 980 {
			s.EstYaw += 6 * deg
		}
		out = append(out, s)
	}
	return out
}

// TestLogMatchesReferenceAED feeds one recorded sequence to the streaming
// Log the way the controller does (add, then ground truth) and checks its
// verdict against the slice-based reference, both mid-stream — between a
// sample and its ground truth, inside the excursion — and at the end.
func TestLogMatchesReferenceAED(t *testing.T) {
	samples := recordedSamples(t)
	const mid = 400
	l := NewLog()
	for i, s := range samples {
		l.add(Sample{T: s.T, EstRoll: s.EstRoll, EstPitch: s.EstPitch, EstYaw: s.EstYaw})
		if i == mid {
			pendingNoTruth := append(append([]Sample(nil), samples[:mid]...),
				Sample{T: s.T, EstRoll: s.EstRoll, EstPitch: s.EstPitch, EstYaw: s.EstYaw})
			got, want := AnalyzeAED(l), referenceAED(pendingNoTruth)
			if got != want {
				t.Fatalf("mid-stream AED = %+v, reference %+v", got, want)
			}
			if !got.Pass || got.LongestExcursionS == 0 {
				t.Fatalf("mid-stream AED = %+v, want a passing verdict inside an excursion", got)
			}
		}
		if s.HasTruth {
			l.setTruth(s.TrueRoll, s.TruePitch, s.TrueYaw)
		}
	}
	got, want := AnalyzeAED(l), referenceAED(samples)
	if got != want {
		t.Fatalf("final AED = %+v, reference %+v", got, want)
	}
	if got.Pass || got.LongestExcursionS <= AEDThresholdSec || got.MaxDivergenceDeg <= AEDThresholdDeg {
		t.Fatalf("final AED = %+v, want the 0.8 s pitch excursion to fail the flight", got)
	}
	if l.Len() != len(samples) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(samples))
	}
}

// TestLogEmpty checks the verdict over no samples and over one sample that
// never received ground truth.
func TestLogEmpty(t *testing.T) {
	l := NewLog()
	if got := AnalyzeAED(l); got != (AEDResult{Pass: true}) {
		t.Fatalf("empty log AED = %+v", got)
	}
	l.setTruth(1, 1, 1) // no sample yet: ignored
	l.add(Sample{T: 0.1, EstRoll: 1})
	if got := AnalyzeAED(l); got != (AEDResult{Pass: true}) {
		t.Fatalf("truthless log AED = %+v", got)
	}
}
