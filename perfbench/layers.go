package main

// endToEnd is the metric set every untraced run reports, on every
// workload. BENCHMARK.json lists the same names and units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_tail_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"live_heap_mb", "MB"},
}

// perLayer is the metric set every traced run reports, on every workload.
// A layer the workload does not exercise reads 0. BENCHMARK.json lists the
// same names and units.
var perLayer = []struct{ name, unit string }{
	// Drone tick (fleet-survey).
	{"sitl.step_ns", "ns"},
	{"sitl.calls", "count"},
	{"sitl.share", "frac"},
	{"flight.step_ns", "ns"},
	{"flight.calls", "count"},
	{"flight.share", "frac"},
	{"mavproxy.tick_ns", "ns"},
	{"mavproxy.calls", "count"},
	{"mavproxy.share", "frac"},
	{"binder.flush_ns", "ns"},
	{"binder.calls", "count"},
	{"binder.share", "frac"},
	{"telemetry.tick_ns", "ns"},
	{"telemetry.calls", "count"},
	{"telemetry.share", "frac"},
	{"core.vdc_tick_us", "us"},
	{"core.vdc_tick.calls", "count"},
	{"core.vdc_tick.share", "frac"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.gc_count", "count"},
	// Tenant request (tenant-open).
	{"cloud.admission_wait_us.p50", "us"},
	{"cloud.admission_wait_us.tail", "us"},
	{"cloud.handler_us.apps", "us"},
	{"cloud.handler_us.orders", "us"},
	{"cloud.handler_us.order", "us"},
	{"cloud.handler_us.create", "us"},
	{"cloud.handler_us.vdr", "us"},
	{"core.validate_us", "us"},
	{"planner.estimate_us", "us"},
	{"cloud.shed", "count"},
	{"loadgen.late_ms", "ms"},
	// Checkpoint path (vdr-churn).
	{"core.save_ms", "ms"},
	{"cloud.vdr_save_ms", "ms"},
	{"cloud.vdr_load_ms", "ms"},
	{"core.restore_ms", "ms"},
	{"container.checkpoint_kb", "KiB"},
	{"cloud.blob_puts", "count"},
	{"cloud.blob_dedup_hit_frac", "frac"},
	// Planner (plan-large).
	{"planner.plan_ms", "ms"},
	{"planner.kernel_ns_per_move", "ns"},
	{"planner.restart_efficiency", "frac"},
	// Trust in the split (all workloads).
	{"trace.coverage", "frac"},
	{"trace.overhead_frac", "frac"},
}

// setLayers reports every per-layer metric, taking values from got and 0
// for layers this workload does not exercise. A name in got that is not in
// perLayer is a bug in the benchmark and fails the run.
func setLayers(rep *report, got map[string]float64) {
	known := make(map[string]bool, len(perLayer))
	for _, m := range perLayer {
		known[m.name] = true
		rep.set(m.name, got[m.name], m.unit)
	}
	for name := range got {
		if !known[name] {
			rep.fail("per-layer metric %q is not declared", name)
		}
	}
}
