package flight

import (
	"math"
	"sync"
)

// Sample is one flight log record: the controller's attitude estimate and,
// when available, the canonical (ground-truth) attitude.
type Sample struct {
	T                            float64 // seconds since boot
	EstRoll, EstPitch, EstYaw    float64
	TrueRoll, TruePitch, TrueYaw float64
	HasTruth                     bool
}

// Log is a flight log, the input to the Attitude Estimate Divergence
// analyzer the paper uses (DroneKit Log Analyzer) to show that virtual
// drone workloads do not destabilize the drone.
//
// AED is the log's only consumer, so the log folds samples into the
// running verdict as they arrive instead of keeping them: its footprint is
// constant in flight length. The latest sample stays pending until the next
// one arrives, because ground truth is attached to it after the fact.
type Log struct {
	mu      sync.Mutex
	pending Sample // latest sample, not yet folded
	n       int    // samples recorded, pending included
	aed     aedFold
}

// NewLog creates an empty flight log.
func NewLog() *Log { return &Log{aed: aedFold{excursionStart: -1}} }

func (l *Log) add(s Sample) {
	l.mu.Lock() //vet:allow hotpath leaf lock around an O(1), allocation-free AED fold
	defer l.mu.Unlock()
	if l.n > 0 {
		l.aed.fold(l.pending)
	}
	l.pending = s
	l.n++
}

func (l *Log) setTruth(roll, pitch, yaw float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		return
	}
	s := &l.pending
	s.TrueRoll, s.TruePitch, s.TrueYaw = roll, pitch, yaw
	s.HasTruth = true
}

// Len returns the number of samples recorded.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// AEDResult is the Attitude Estimate Divergence verdict: the flight is
// unstable if yaw, pitch, or roll diverges more than ThresholdDeg from the
// canonical attitude for longer than ThresholdSec.
type AEDResult struct {
	MaxDivergenceDeg  float64
	LongestExcursionS float64
	Pass              bool
}

// AED analyzer thresholds (DroneKit Log Analyzer defaults cited in §6.2).
const (
	AEDThresholdDeg = 5.0
	AEDThresholdSec = 0.5
)

// aedFold is the AED analysis over a sample stream, one sample at a time.
// Its res has every field but Pass.
type aedFold struct {
	res            AEDResult
	excursionStart float64 // -1 outside an excursion
}

func (a *aedFold) fold(s Sample) {
	if !s.HasTruth {
		return
	}
	div := math.Max(angDiffDeg(s.EstRoll, s.TrueRoll),
		math.Max(angDiffDeg(s.EstPitch, s.TruePitch), angDiffDeg(s.EstYaw, s.TrueYaw)))
	if div > a.res.MaxDivergenceDeg {
		a.res.MaxDivergenceDeg = div
	}
	if div > AEDThresholdDeg {
		if a.excursionStart < 0 {
			a.excursionStart = s.T
		}
		if dur := s.T - a.excursionStart; dur > a.res.LongestExcursionS {
			a.res.LongestExcursionS = dur
		}
	} else {
		a.excursionStart = -1
	}
}

// AnalyzeAED runs the Attitude Estimate Divergence analysis over every
// sample logged so far. The log keeps recording afterwards.
func AnalyzeAED(l *Log) AEDResult {
	l.mu.Lock()
	a := l.aed
	if l.n > 0 {
		a.fold(l.pending)
	}
	l.mu.Unlock()
	res := a.res
	res.Pass = true
	if res.LongestExcursionS > AEDThresholdSec {
		res.Pass = false
	}
	return res
}

func angDiffDeg(a, b float64) float64 {
	return math.Abs(wrapPi(a-b)) * 180 / math.Pi
}
