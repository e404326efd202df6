package planner

import (
	"math"
	"sync/atomic"

	"androne/internal/geo"
)

// legTable caches 3-D leg distances between planner nodes. Node ids 0..n-1
// are stops; id n is the base (all route sentinels collapse onto it, since
// every route starts and ends at base). Distances are computed lazily with
// geo.Distance3D the first time a pair is actually touched by a move, then
// reused.
//
// The cache is a performance device only: Distance3D is a pure function of
// the two positions, so a hit and a miss yield the bit-identical float64 —
// cache layout, eviction, and sharing can never change a plan.
//
// One table serves a whole plan. Up to legDenseBytes it is a packed upper
// triangle of float64 bits that every restart worker reads and fills at
// once, lock-free: a slot is loaded and stored atomically, and two workers
// racing on a pair store the same bits. Above legDenseBytes each worker
// gets its own fixed-size
// open-addressing probe table over the shared positions (worker), so the
// probe table needs no synchronization.
type legTable struct {
	n   int            // base id; valid ids are 0..n
	pos []geo.Position // id -> position (pos[n] = base)

	// tri is the packed upper triangle, slot j*(j+1)/2 + i for i < j,
	// holding math.Float64bits of the distance with 0 as the "unset"
	// sentinel. A genuinely zero distance (two stops at the same position)
	// is simply recomputed on every lookup, which stays correct.
	tri []atomic.Uint64

	// Above legDenseBytes, the worker's own fixed-size open-addressing
	// table; on probe overflow the distance is recomputed without caching.
	keys []int64
	vals []float64
	mask int
}

const (
	// legDenseBytes bounds the triangle at 8 MiB, about 1,447 nodes.
	legDenseBytes = 8 << 20
	// legProbeMax bounds open-addressing probes before falling back to a
	// direct computation.
	legProbeMax = 16
	// legProbeEntries caps the probe table size (1<<20 entries = 16 MiB).
	legProbeEntries = 1 << 20
)

// triSlots is the packed triangle length for node ids 0..n.
func triSlots(n int) int { return (n + 1) * (n + 2) / 2 }

// newLegTable builds the plan's table: the triangle when it fits in
// legDenseBytes, otherwise only the positions, from which worker builds
// each worker's probe table.
func newLegTable(stops []Stop, base geo.Position) *legTable {
	t := &legTable{n: len(stops)}
	t.pos = make([]geo.Position, t.n+1)
	for i, s := range stops {
		t.pos[i] = s.Waypoint.Position
	}
	t.pos[t.n] = base
	if triSlots(t.n)*8 <= legDenseBytes {
		t.tri = make([]atomic.Uint64, triSlots(t.n))
	}
	return t
}

// worker returns the table one restart worker reads: the shared triangle
// itself, or a private probe table over the same positions.
func (t *legTable) worker() *legTable {
	if t.tri != nil {
		return t
	}
	w := &legTable{n: t.n, pos: t.pos}
	want := (t.n + 1) * 64
	if want > legProbeEntries {
		want = legProbeEntries
	}
	size := 1
	for size < want {
		size <<= 1
	}
	w.keys = make([]int64, size)
	w.vals = make([]float64, size)
	w.mask = size - 1
	return w
}

// dist returns the 3-D distance between node ids i and j.
func (t *legTable) dist(i, j int) float64 {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	if t.tri != nil {
		s := &t.tri[j*(j+1)/2+i]
		if b := s.Load(); b != 0 {
			return math.Float64frombits(b)
		}
		d := geo.Distance3D(t.pos[i], t.pos[j])
		s.Store(math.Float64bits(d))
		return d
	}
	key := int64(i)*int64(t.n+1) + int64(j) + 1 // +1 keeps 0 as "empty"
	h := int(splitmix64(uint64(key))) & t.mask
	for probe := 0; probe < legProbeMax; probe++ {
		switch t.keys[h] {
		case key:
			return t.vals[h]
		case 0:
			d := geo.Distance3D(t.pos[i], t.pos[j])
			t.keys[h] = key
			t.vals[h] = d
			return d
		}
		h = (h + 1) & t.mask
	}
	return geo.Distance3D(t.pos[i], t.pos[j])
}

// splitmix64 is the SplitMix64 finalizer, used to spread leg keys over the
// probe table deterministically.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
