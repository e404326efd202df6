// Command perfbench is the repository's benchmark: four workloads over the
// simulated drone tick, the tenant request path, the checkpoint write path
// and the flight planner, each checked for correct outputs. See README.md
// for the workload → layer → metric map.
//
//	perfbench --workload fleet-survey --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they
// are the per-layer set, timed from this package around the calls into each
// module. The exit code is non-zero when a correctness check fails or the
// workload cannot run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// HeldOutSeed is never used while tuning the benchmark or a change; claims
// are re-checked on it (see README.md).
const HeldOutSeed = 9001

// setupReps is how many times each workload sets up; setup_s is the median.
const setupReps = 7

// run is one invocation's parameters.
type run struct {
	seed    string
	seconds float64
	trace   bool
	workers int
	hs      *hostSpeed // probes the host's speed; see stats.go
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back: the JSON line's fields plus the
// human-readable lines printed above it.
type report struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]metric
	notes     []string
}

func newReport() *report {
	return &report{correct: true, metrics: make(map[string]metric)}
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect and records why.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.note("CHECK FAILED: "+format, args...)
}

// workload is one benchmark workload.
type workload struct {
	name string
	why  string
	run  func(run) (*report, error)
}

var workloads = []workload{
	{"fleet-survey", "closed batch of survey drones: the per-tick flight stack does the work", runFleetSurvey},
	{"tenant-open", "open-loop tenant requests into the service handler: admission, portal, shards, JSON", runTenantOpen},
	{"vdr-churn", "save/load/restore cycles through one shared VDR: checkpoint, layer split, sha256, blobs", runVDRChurn},
	{"plan-large", "sequential ~1000-stop plans: the annealing kernel and the restart pool", runPlanLarge},
}

func main() {
	name := flag.String("workload", "", "workload to run: fleet-survey, tenant-open, vdr-churn, plan-large")
	seed := flag.String("seed", "1", "workload seed; inputs are a pure function of it")
	seconds := flag.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}

	// One process, at most one P per CPU.
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	hs, err := newHostSpeed(procs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r := run{seed: *seed, seconds: *seconds, trace: *trace == 1, workers: procs, hs: hs}

	fmt.Printf("workload %s (%s)\n", wl.name, wl.why)
	fmt.Printf("seed %s (held-out seed: %d), seconds %g, trace %d\n", r.seed, HeldOutSeed, r.seconds, *trace)
	fmt.Printf("host nproc=%d GOMAXPROCS=%d go=%s os=%s/%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())

	rep, err := wl.run(r)
	hs.close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	os.Exit(emit(os.Stdout, rep))
}

// emit prints the notes, the metric table and the JSON line, and returns
// the exit code.
func emit(w *os.File, rep *report) int {
	names := make([]string, 0, len(rep.metrics))
	for n, m := range rep.metrics {
		names = append(names, n)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.fail("metric %s is not a finite number", n)
			rep.metrics[n] = metric{Unit: m.Unit}
		}
	}
	sort.Strings(names)
	if rep.attempted < 1 {
		rep.fail("no operation was attempted")
		rep.attempted, rep.failed = 1, 1
	}
	for _, n := range rep.notes {
		fmt.Fprintln(w, n)
	}
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "attempted %d, failed %d, fail_frac %g\n",
		rep.attempted, rep.failed, float64(rep.failed)/float64(rep.attempted))
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !rep.correct {
		return 1
	}
	return 0
}

// cpuModel reads the CPU model name for the host facts line.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// deadline returns when a phase of the given share of the run ends.
func (r run) deadline(share float64) time.Time {
	return time.Now().Add(time.Duration(share * r.seconds * float64(time.Second)))
}
