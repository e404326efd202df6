package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// rng is a splitmix64 stream seeded from a string, so every input the
// workloads generate is a pure function of (workload, --seed).
type rng struct{ s uint64 }

func newRNG(seed string) *rng {
	h := uint64(14695981039346656037)
	for i := 0; i < len(seed); i++ {
		h ^= uint64(seed[i])
		h *= 1099511628211
	}
	return &rng{s: h}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fill overwrites b with pseudo-random bytes.
func (r *rng) fill(b []byte) {
	for i := 0; i < len(b); i += 8 {
		v := r.next()
		for j := 0; j < 8 && i+j < len(b); j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median of xs (sorted in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail reports the q-quantile of xs and how many samples lie beyond it.
// Each workload fixes q so that a normal run leaves at least ten samples
// beyond it; the note says so when a run falls short.
func tail(xs []float64, q float64) (v float64, beyond int) {
	v = quantile(xs, q)
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	return v, beyond
}

// latencyNote describes a latency sample for the notes block.
func latencyNote(what string, xs []float64, q float64) string {
	v, beyond := tail(xs, q)
	warn := ""
	if beyond < 10 {
		warn = " (fewer than 10 beyond: tail is unreliable)"
	}
	return fmt.Sprintf("%s: n=%d p50=%.4g ms p%g=%.4g ms (%d beyond%s), p99=%.4g ms",
		what, len(xs), median(xs), q*100, v, beyond, warn, quantile(xs, 0.99))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// memProbe brackets a timed phase: bytes allocated during it, and the live
// heap after a forced GC at its end.
type memProbe struct{ alloc0 uint64 }

func startMem() memProbe {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return memProbe{alloc0: st.TotalAlloc}
}

// stop returns (MB allocated since start, MB live after a forced GC).
func (p memProbe) stop() (allocMB, liveMB float64) {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	allocMB = float64(st.TotalAlloc-p.alloc0) / (1 << 20)
	runtime.GC()
	runtime.ReadMemStats(&st)
	return allocMB, float64(st.HeapAlloc) / (1 << 20)
}

// timeSetup runs setup setupReps times, probing the host's speed after
// each, and returns the median wall time in seconds at the reference
// host's speed, and the last repetition's value, which the timed phase
// uses.
func timeSetup[T any](h *hostSpeed, setup func() (T, error)) (T, float64, error) {
	var last T
	var ends []time.Time
	var walls []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		end := time.Now()
		ends = append(ends, end)
		walls = append(walls, end.Sub(t0).Seconds())
		last = v
		h.sample()
	}
	for i := range walls {
		walls[i] /= h.slowdownAt(ends[i])
	}
	return last, median(walls), nil
}

// gcProbe reads the runtime's GC counters around a traced phase.
type gcProbe struct {
	gcCPU, totalCPU float64
	cycles          uint64
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readGC() gcProbe {
	s := append([]metrics.Sample(nil), gcSamples...)
	metrics.Read(s)
	var p gcProbe
	if s[0].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		p.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		p.cycles = s[2].Value.Uint64()
	}
	return p
}

// since returns the GC share of CPU time and the GC cycles since p.
func (p gcProbe) since() (cpuFrac float64, cycles uint64) {
	now := readGC()
	if d := now.totalCPU - p.totalCPU; d > 0 {
		cpuFrac = (now.gcCPU - p.gcCPU) / d
	}
	return cpuFrac, now.cycles - p.cycles
}

// refProbeMs is how long one host-speed probe, refTask on every CPU at
// once, takes on the reference host, a 2-CPU Intel Xeon virtual machine,
// in ms: about the probe's median in runs at quiet times.
const refProbeMs = 10.5

// probeEvery is how often a closed loop stops between operations to probe
// the host's speed.
const probeEvery = 250 * time.Millisecond

// refTaskBytes is the buffer refTask writes and hashes.
const refTaskBytes = 4 << 20

// hostSpeed times refTask, fixed work that no code of the program under
// test runs, on every CPU at once, at points through a timed phase. On a
// shared host the speed of the CPUs drifts by a fifth and more over a
// minute, and the workloads slow and speed up with the probe: over 10 s
// blocks of a 200 s fleet-survey run, drone latency and probe time
// correlated at 0.95 (0.67 with the probe on one CPU only, because the
// program's garbage collector runs on the other). Dividing a phase's times
// by the probe's slowdown against the reference host removes most of the
// drift and leaves the program's own speed.
type hostSpeed struct {
	bufs  [][]byte
	last  time.Time
	at    []time.Time // when each sample ended
	ms    []float64
	spent time.Duration // wall time spent in probes, GC included
	sink  []float64
}

// newHostSpeed maps refTask's buffers outside the Go heap, so the probe
// adds nothing to live_heap_mb.
func newHostSpeed(cpus int) (*hostSpeed, error) {
	h := &hostSpeed{sink: make([]float64, cpus)}
	for i := 0; i < cpus; i++ {
		buf, err := syscall.Mmap(-1, 0, refTaskBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			h.close()
			return nil, fmt.Errorf("mapping the host-speed probe's buffer: %w", err)
		}
		h.bufs = append(h.bufs, buf)
	}
	return h, nil
}

// close unmaps the buffers.
func (h *hostSpeed) close() {
	for _, b := range h.bufs {
		syscall.Munmap(b)
	}
}

// refTask is float arithmetic followed by writing and hashing a buffer:
// compute, cache and memory traffic in one fixed mix.
func refTask(buf []byte) float64 {
	x := 1.0
	for i := 0; i < 300_000; i++ {
		x = math.Sqrt(x*1.0000001+float64(i&7)) + 0.5
	}
	b := byte(x)
	for i := range buf {
		buf[i] = byte(i) ^ b
	}
	sum := sha256.Sum256(buf)
	return x + float64(sum[0])
}

// sample collects the program's garbage, so no collection overlaps the
// probe, and times refTask running on every CPU at once.
func (h *hostSpeed) sample() {
	t0 := time.Now()
	runtime.GC()
	t1 := time.Now()
	var wg sync.WaitGroup
	for i, buf := range h.bufs {
		wg.Add(1)
		go func(i int, buf []byte) {
			defer wg.Done()
			h.sink[i] += refTask(buf)
		}(i, buf)
	}
	wg.Wait()
	h.last = time.Now()
	h.at = append(h.at, h.last)
	h.ms = append(h.ms, ms(h.last.Sub(t1)))
	h.spent += h.last.Sub(t0)
}

// tick samples when probeEvery has passed since the last sample.
func (h *hostSpeed) tick() {
	if time.Since(h.last) >= probeEvery {
		h.sample()
	}
}

// slowdownNear is how many probe samples, the nearest in time, slowdownAt
// takes the median of.
const slowdownNear = 9

// slowdownAt is the median time of the probe samples nearest to t over the
// reference host's: above 1 when this host ran slower around t.
func (h *hostSpeed) slowdownAt(t time.Time) float64 {
	if len(h.ms) == 0 {
		return 1
	}
	i := sort.Search(len(h.at), func(i int) bool { return h.at[i].After(t) })
	lo := max(0, min(i-slowdownNear/2, len(h.ms)-slowdownNear))
	hi := min(len(h.ms), lo+slowdownNear)
	return median(append([]float64(nil), h.ms[lo:hi]...)) / refProbeMs
}

// noteSpeed records the probe's figures in the notes.
func (r *report) noteSpeed(h *hostSpeed) {
	sd := append([]float64(nil), h.ms...)
	r.note("host speed: %d probes on %d CPUs, p10/p50/p90 %.4g/%.4g/%.4g ms against %.4g ms on the reference host",
		len(sd), len(h.bufs), quantile(sd, 0.1), quantile(sd, 0.5), quantile(sd, 0.9), refProbeMs)
}

// opSample is one completed operation.
type opSample struct {
	end time.Time
	lat time.Duration
}

// phaseStats summarises a timed phase over all its operations: operations
// completed per second, and p50 and q-tail latency in ms.
type phaseStats struct{ opsPerS, p50, tail float64 }

// summarize returns the figures of a phase's operations, pooled over the
// whole phase. One closed-loop caller issued them, busy in one operation
// at a time, so the rate is one over the mean latency. With h set, each
// latency is first divided by the host's slowdown at the operation's end:
// the figures are then those of the reference host.
func summarize(ops []opSample, q float64, h *hostSpeed) phaseStats {
	if len(ops) == 0 {
		return phaseStats{}
	}
	lats := make([]float64, len(ops))
	var busy float64
	for i, op := range ops {
		lats[i] = ms(op.lat)
		if h != nil {
			lats[i] /= h.slowdownAt(op.end)
		}
		busy += lats[i]
	}
	st := phaseStats{p50: median(lats)}
	st.tail, _ = tail(lats, q)
	if busy > 0 {
		st.opsPerS = float64(len(ops)) / (busy / 1000)
	}
	return st
}

// setPhase notes a phase's measured figures and reports its rate, p50 and
// tail at the reference host's speed.
func (r *report) setPhase(what string, ops []opSample, q float64, h *hostSpeed) {
	lat := make([]float64, len(ops))
	for i, op := range ops {
		lat[i] = ms(op.lat)
	}
	st := summarize(ops, q, nil)
	r.note("%s, measured: %.6g ops/s; %s", what, st.opsPerS, latencyNote("latency", lat, q))
	st = summarize(ops, q, h)
	r.note("%s, at reference speed: %.6g ops/s; p50 %.6g ms, p%g %.6g ms", what, st.opsPerS, st.p50, q*100, st.tail)
	r.set("ops_per_s", st.opsPerS, "1/s")
	r.set("lat_p50_ms", st.p50, "ms")
	r.set("lat_tail_ms", st.tail, "ms")
}
