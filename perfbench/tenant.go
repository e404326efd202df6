package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"androne/internal/apps"
	"androne/internal/cloud"
	"androne/internal/container"
	"androne/internal/core"
	"androne/internal/energy"
	"androne/internal/geo"
	"androne/internal/planner"
	"androne/internal/service"
)

// tenant-open sizing. The per-tenant policy must never be what sheds a
// request, on any host: with the default token bucket of 200 req/s per
// tenant (burst 400), tenantCount tenants chosen uniformly at random stay
// under it up to about tenantCount*160 ~ 160000 req/s, about 10 times what
// a 2-CPU host served with 64 closed-loop clients (~15000 req/s) and far
// above any rate this workload sends. The orders' total stays
// fixed at tenantCount*ordersPerTenant: a tenant's listing scans its whole
// shard (cloud.Orders.List), so that total, not the tenant count, sets the
// cost of listing orders. Creates are one request in 28, so even a run at
// 160000 req/s adds under 100 orders per tenant, far from the 512-order
// quota.
const (
	tenantCount     = 1024
	ordersPerTenant = 8
	vdrManifests    = 64
	// tenantRate is the nominal rate R in requests per second; the second
	// fixed window runs at 2R.
	tenantRate = 800
	// tenantSLOms is the latency limit on the tail percentile that the
	// rate search holds the service to.
	tenantSLOms = 20
	// tenantTailQ is the tail percentile, of the closed loop's rounds
	// (270 leave 27 beyond p90) and of the open-loop windows. A window at R
	// holds thousands of requests, so p99 would leave more than ten beyond
	// it, but on a 2-CPU host p99 is set by which requests meet a GC cycle
	// (one every ~250 ms) and moves by a third from run to run; so the tail
	// is taken at p90. The notes print p99 as well.
	tenantTailQ = 0.90
	// The rate search: geometric steps up from 2R, then bisection, in
	// windows of searchWindowS seconds.
	searchStep       = 1.5
	searchBisections = 5
	searchWindowS    = 1
	// The closed-loop phase: one client sends closedRounds rounds, each of
	// roundMixes times the mix, about ten seconds' worth at the reference
	// host's speed. A round, not a request, is the operation timed: the
	// mix is half cheap and half dear requests, so a per-request p50 would
	// sit on the edge between the two and jump from run to run. A round
	// allocates about 12 MB, so every round meets one or two GC cycles and
	// its tail is not set by which rounds meet none. The count is fixed,
	// not the time, because creates grow the order lists that later
	// listings scan: a phase that ran until a deadline would give a faster
	// service more orders to scan.
	closedRounds = 270
	roundMixes   = 4
	// warmRequests are sent closed-loop during set-up to warm the
	// handler's caches and pools.
	warmRequests = 400
)

// request kinds, with the endpoint class admission uses for each.
const (
	kindApp = iota
	kindOrders
	kindOrder
	kindCreate
	kindVDR
	numKinds
)

var kindNames = [numKinds]string{"apps", "orders", "order", "create", "vdr"}

// kindWeights is the traffic mix, taken from internal/loadgen's default
// tenant lifecycle: per tenant one app listing and one app read (both sent
// here as app reads), two order creates and 25 rounds of list orders plus
// list VDR. loadgen never reads one order back; the get-order weight (one
// read per create) is this benchmark's own choice.
var kindWeights = [numKinds]int{kindApp: 2, kindOrders: 25, kindOrder: 2, kindCreate: 2, kindVDR: 25}

// kindWeightSum is the total of kindWeights.
var kindWeightSum = func() (n int) {
	for _, w := range kindWeights {
		n += w
	}
	return n
}()

// tenantReq is one generated request.
type tenantReq struct {
	kind   int
	tenant string
	target string // app package or order ID
	body   []byte // create body
}

// tenantFixture is a set-up service plus the inputs generated for it.
type tenantFixture struct {
	svc      *service.Service
	handler  http.Handler
	tenants  []string
	orderIDs [][]string // per tenant, the working set
	appPkgs  []string
	rng      *rng
	seq      int
}

// orderDefinition is a small valid photo order near home.
func orderDefinition(r *rng) []byte {
	home := service.DefaultConfig().Base
	def := core.Definition{
		Waypoints: []geo.Waypoint{{
			Position:  geo.Position{LatLon: geo.OffsetNE(home.LatLon, r.float()*400-200, r.float()*400-200), Alt: 15},
			MaxRadius: 40,
		}},
		MaxDuration: 60 + r.float()*240, EnergyAllotted: 5000 + r.float()*20000,
		WaypointDevices: []string{"camera"},
		Apps:            []string{apps.PhotoPackage},
	}
	raw, err := def.Encode()
	if err != nil {
		panic(err) // a fixed, valid struct always encodes
	}
	return raw
}

// vdrEntry builds a canonical checkpoint entry so the VDR splits it into
// definition, base, app-set and state layers.
func vdrEntry(r *rng, i int, owner string) (cloud.VDREntry, error) {
	name := fmt.Sprintf("vd-%03d", i)
	state := make([]byte, 256)
	r.fill(state)
	cp, err := json.Marshal(container.Checkpoint{
		Name: name, ImageName: core.BaseImageName,
		Limits: container.Limits{MemoryMB: core.MemVirtualDroneMB},
		Upper: map[string][]byte{
			"/data/" + apps.PhotoPackage + "/instance-state": []byte(`{"shots":3}`),
			cloud.FlightProgressPath:                         []byte(`{"started":true}`),
			"/sdcard/out/frame-0":                            state,
		},
	})
	if err != nil {
		return cloud.VDREntry{}, err
	}
	return cloud.VDREntry{Name: name, Owner: owner, Definition: orderDefinition(r), Checkpoint: cp}, nil
}

// newTenantFixture boots the service and fills its working set: orders
// per tenant, VDR manifests, the demo apps.
func newTenantFixture(seed string) (*tenantFixture, error) {
	cfg := service.DefaultConfig()
	cfg.Seed = "perfbench-" + seed
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := svc.SeedDemoApps(); err != nil {
		svc.Close()
		return nil, err
	}
	f := &tenantFixture{svc: svc, handler: svc.Handler(), rng: newRNG("tenant-open/" + seed)}
	for _, a := range svc.AppStore().List() {
		f.appPkgs = append(f.appPkgs, a.Package)
	}
	for t := 0; t < tenantCount; t++ {
		user := fmt.Sprintf("tenant-%03d", t)
		f.tenants = append(f.tenants, user)
		var ids []string
		for i := 0; i < ordersPerTenant; i++ {
			ord, err := svc.Orders().Create(user, "", orderDefinition(f.rng))
			if err != nil {
				svc.Close()
				return nil, err
			}
			ids = append(ids, ord.ID)
		}
		f.orderIDs = append(f.orderIDs, ids)
	}
	for i := 0; i < vdrManifests; i++ {
		e, err := vdrEntry(f.rng, i, f.tenants[i%tenantCount])
		if err == nil {
			err = svc.VDR().Save(e)
		}
		if err != nil {
			svc.Close()
			return nil, err
		}
	}
	// Warm-up: closed-loop requests, every one checked.
	for i := 0; i < warmRequests; i++ {
		req := f.next()
		if code, _, _ := serve(f.handler, req, nil); code != expectStatus(req.kind) {
			svc.Close()
			return nil, fmt.Errorf("warm-up %s request answered %d", kindNames[req.kind], code)
		}
	}
	return f, nil
}

// next draws the next request of the seeded mix.
func (f *tenantFixture) next() tenantReq {
	pick := f.rng.intn(kindWeightSum)
	kind := 0
	for acc := kindWeights[0]; pick >= acc; acc += kindWeights[kind] {
		kind++
	}
	return f.request(kind)
}

// round draws one round of the mix: each kind roundMixes times its weight,
// in a seeded order.
func (f *tenantFixture) round() []tenantReq {
	var kinds []int
	for k, w := range kindWeights {
		for i := 0; i < w*roundMixes; i++ {
			kinds = append(kinds, k)
		}
	}
	out := make([]tenantReq, len(kinds))
	for i := len(kinds) - 1; i >= 0; i-- {
		j := f.rng.intn(i + 1)
		kinds[i], kinds[j] = kinds[j], kinds[i]
		out[i] = f.request(kinds[i])
	}
	return out
}

// request draws a request of the given kind: its tenant and target.
func (f *tenantFixture) request(kind int) tenantReq {
	r := f.rng
	t := r.intn(len(f.tenants))
	req := tenantReq{kind: kind, tenant: f.tenants[t]}
	switch kind {
	case kindApp:
		req.target = f.appPkgs[r.intn(len(f.appPkgs))]
	case kindOrder:
		req.target = f.orderIDs[t][r.intn(len(f.orderIDs[t]))]
	case kindCreate:
		f.seq++
		body, _ := json.Marshal(map[string]any{
			"user": req.tenant, "name": fmt.Sprintf("bench-%06d", f.seq),
			"definition": json.RawMessage(orderDefinition(r)),
		})
		req.body = body
	}
	return req
}

// schedule draws n requests.
func (f *tenantFixture) schedule(n int) []tenantReq {
	out := make([]tenantReq, n)
	for i := range out {
		out[i] = f.next()
	}
	return out
}

func expectStatus(kind int) int {
	if kind == kindCreate {
		return http.StatusCreated
	}
	return http.StatusOK
}

// traceKey carries a request's timing record into the traced handler.
type traceKey struct{}

// reqTiming is the traced handler's view of one request.
type reqTiming struct {
	in, out time.Time
}

// serve sends one request through h and returns the status, the body and
// when the handler was called.
func serve(h http.Handler, req tenantReq, tm *reqTiming) (int, []byte, time.Time) {
	var hr *http.Request
	switch req.kind {
	case kindApp:
		hr = httptest.NewRequest(http.MethodGet, "/api/apps/"+req.target, nil)
	case kindOrders:
		hr = httptest.NewRequest(http.MethodGet, "/api/orders?user="+req.tenant, nil)
	case kindOrder:
		hr = httptest.NewRequest(http.MethodGet, "/api/orders/"+req.target, nil)
	case kindCreate:
		hr = httptest.NewRequest(http.MethodPost, "/api/orders", bytes.NewReader(req.body))
	default:
		hr = httptest.NewRequest(http.MethodGet, "/api/vdr", nil)
	}
	hr.Header.Set(cloud.TenantHeader, req.tenant)
	if tm != nil {
		hr = hr.WithContext(context.WithValue(hr.Context(), traceKey{}, tm))
	}
	rec := httptest.NewRecorder()
	sent := time.Now()
	h.ServeHTTP(rec, hr)
	return rec.Code, rec.Body.Bytes(), sent
}

// sample is one open-loop request's outcome.
type sample struct {
	due     time.Time
	late    time.Duration // generator lateness: issue time minus due time
	latency time.Duration // response time minus due time
	started time.Time     // when the request's goroutine started
	sent    time.Time     // when the handler was called
	done    time.Time
	timing  reqTiming
	code    int
	id      string // created order ID
	bad     string // why the response is wrong, if it is
}

// window is one open-loop phase at a fixed rate.
type window struct {
	rate    float64
	samples []sample
}

// openLoop issues reqs at rate from start, each due at start+i/rate, every
// request on its own goroutine, and waits for all of them. Latency counts
// from the due time, so a stall delays every request due during it. With
// traceEvery n > 0, every n-th request carries a timing record into the
// traced handler.
func openLoop(h http.Handler, reqs []tenantReq, rate float64, start time.Time, traceEvery int) window {
	w := window{rate: rate, samples: make([]sample, len(reqs))}
	var wg sync.WaitGroup
	for i := range reqs {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		w.samples[i].due = due
		w.samples[i].late = time.Since(due)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			s := &w.samples[i]
			s.started = time.Now()
			var tm *reqTiming
			if traceEvery > 0 && i%traceEvery == traceEvery-1 {
				tm = &s.timing
			}
			code, body, sent := serve(h, reqs[i], tm)
			s.sent = sent
			s.done = time.Now()
			s.latency = s.done.Sub(due)
			s.code = code
			s.check(reqs[i], body)
		}(i, due)
	}
	wg.Wait()
	return w
}

// check validates one response against its request.
func (s *sample) check(req tenantReq, body []byte) {
	if want := expectStatus(req.kind); s.code != want {
		s.bad = fmt.Sprintf("%s request answered %d, want %d", kindNames[req.kind], s.code, want)
		if s.code == http.StatusTooManyRequests && bytes.Contains(body, []byte("tenant rate limit")) {
			s.bad += " (per-tenant rate limit: this host needs a larger tenantCount)"
		}
		return
	}
	switch req.kind {
	case kindCreate:
		var ord cloud.Order
		if err := json.Unmarshal(body, &ord); err != nil || ord.ID == "" || ord.User != req.tenant {
			s.bad = "create returned no order for its tenant"
			return
		}
		s.id = ord.ID
	case kindOrder:
		if !bytes.Contains(body, []byte(`"id":"`+req.target+`"`)) {
			s.bad = "get order returned another order"
		}
	case kindApp:
		if !bytes.Contains(body, []byte(req.target)) {
			s.bad = "get app returned another app"
		}
	}
}

// stats summarises a window.
func (w window) stats() (lat []float64, shed, bad int) {
	for _, s := range w.samples {
		lat = append(lat, ms(s.latency))
		if s.code == http.StatusTooManyRequests {
			shed++
		}
		if s.bad != "" {
			bad++
		}
	}
	return lat, shed, bad
}

// lateTail is the generator's lateness at the tail percentile, in ms.
func (w window) lateTail() float64 {
	var late []float64
	for _, s := range w.samples {
		late = append(late, ms(s.late))
	}
	v, _ := tail(late, tenantTailQ)
	return v
}

// meetsSLO reports whether the window held the latency limit with no
// failed request and a generator that kept up.
func (w window) meetsSLO() (bool, float64) {
	lat, _, bad := w.stats()
	tv, _ := tail(lat, tenantTailQ)
	return bad == 0 && tv <= tenantSLOms && w.lateTail() <= tenantSLOms, tv
}

// windowReqs is how many requests a window at rate lasting secs holds.
func windowReqs(rate, secs float64) int {
	return int(math.Max(1, math.Round(rate*secs)))
}

// checkCreated lists every tenant's orders and requires each order created
// in the timed phase to be there.
func checkCreated(rep *report, f *tenantFixture, ws ...window) {
	var created []string
	for _, w := range ws {
		for _, s := range w.samples {
			if s.id != "" {
				created = append(created, s.id)
			}
		}
	}
	listed := map[string]bool{}
	for _, user := range f.tenants {
		code, body, _ := serve(f.handler, tenantReq{kind: kindOrders, tenant: user}, nil)
		if code != http.StatusOK {
			rep.fail("listing %s's orders answered %d", user, code)
			continue
		}
		var orders []cloud.Order
		if err := json.Unmarshal(body, &orders); err != nil {
			rep.fail("listing %s's orders: %v", user, err)
			continue
		}
		for _, o := range orders {
			if o.User != user {
				rep.fail("listing %s's orders returned %s's order %s", user, o.User, o.ID)
			}
			listed[o.ID] = true
		}
	}
	missing := 0
	for _, id := range created {
		if !listed[id] {
			missing++
		}
	}
	if missing > 0 {
		rep.fail("%d created orders are missing from their tenant's listing", missing)
	}
}

// account adds a window's requests to the run's attempted/failed counts.
func account(rep *report, w window) {
	_, _, bad := w.stats()
	rep.attempted += int64(len(w.samples))
	rep.failed += int64(bad)
	for _, s := range w.samples {
		if s.bad != "" {
			rep.fail("%s", s.bad)
			return // one line per window is enough
		}
	}
}

func runTenantOpen(r run) (*report, error) {
	return runTenantOpenWith(r, nil)
}

// runTenantOpenWith runs the workload; wrap, when set, replaces the
// service handler (the benchmark's own tests use it to inject faults).
func runTenantOpenWith(r run, wrap func(http.Handler) http.Handler) (*report, error) {
	var prev *tenantFixture
	f, setupS, err := timeSetup(r.hs, func() (*tenantFixture, error) {
		if prev != nil {
			prev.svc.Close()
		}
		var err error
		prev, err = newTenantFixture(r.seed)
		return prev, err
	})
	if err != nil {
		return nil, err
	}
	defer f.svc.Close()
	if wrap != nil {
		f.handler = wrap(f.handler)
	}
	if r.trace {
		return traceTenantOpen(r, f, setupS)
	}
	rep := newReport()
	win := r.seconds * 0.15
	reqsR := f.schedule(windowReqs(tenantRate, win))
	reqs2R := f.schedule(windowReqs(2*tenantRate, win))

	// Memory is measured over the two fixed-rate windows, whose request
	// count does not depend on how fast the service is.
	end := r.deadline(1)
	mem := startMem()
	wR := openLoop(f.handler, reqsR, tenantRate, time.Now(), 0)
	w2R := openLoop(f.handler, reqs2R, 2*tenantRate, time.Now(), 0)
	allocMB, liveMB := mem.stop()
	rounds := make([][]tenantReq, closedRounds)
	for i := range rounds {
		rounds[i] = f.round()
	}
	closed, closedOps := closedLoop(f.handler, rounds, r.deadline(0.5), r.hs)
	if len(closedOps) < closedRounds {
		rep.note("the closed loop reached its deadline after %d of %d rounds", len(closedOps), closedRounds)
	}
	maxRate, search := searchRate(f, w2R, end)

	account(rep, wR)
	account(rep, w2R)
	account(rep, closed)
	checkCreated(rep, f, append([]window{wR, w2R, closed}, search...)...)

	lat2R, _, _ := w2R.stats()
	n := len(wR.samples) + len(w2R.samples)
	rep.note("tenant-open: %d tenants, %d orders each, %d VDR manifests; open loop, one goroutine per request, then one closed-loop client", tenantCount, ordersPerTenant, vdrManifests)
	rep.noteSpeed(r.hs)
	// The open-loop figures are printed, not gated: at these rates a CPU
	// is idle between requests, so a request's latency is much the time
	// the host takes to wake a CPU and how often it stalls one. Over five
	// seeds run in a row on a shared host, p90 at R ranged from 1.7 to
	// 4.9 ms.
	latR, _, _ := wR.stats()
	rep.note("%s", latencyNote(fmt.Sprintf("requests at R=%d/s (open loop, from due time)", tenantRate), latR, tenantTailQ))
	rep.note("%s", latencyNote(fmt.Sprintf("requests at 2R=%d/s (open loop, from due time)", 2*tenantRate), lat2R, tenantTailQ))
	tail2x, _ := tail(lat2R, tenantTailQ)
	rep.note("lat_tail_ms.2x %.6g ms", tail2x)
	rep.setPhase(fmt.Sprintf("rounds of %d requests in closed loop, one client", roundMixes*kindWeightSum), closedOps, tenantTailQ, r.hs)
	for _, w := range search {
		ok, tv := w.meetsSLO()
		_, shed, _ := w.stats()
		rep.note("  search %.0f/s: p%g %.4g ms, shed %d, meets SLO %v", w.rate, tenantTailQ*100, tv, shed, ok)
	}
	rep.note("max_rate_rps %.6g (p%g <= %d ms, no failures)", maxRate, tenantTailQ*100, tenantSLOms)
	rep.set("setup_s", setupS, "s")
	rep.set("alloc_mb_per_op", allocMB/float64(n), "MB")
	rep.set("live_heap_mb", liveMB, "MB")
	return rep, nil
}

// closedLoop sends the rounds' requests from one client, each request
// when the last one returns, until end or until the rounds run out, and
// probes the host's speed between rounds. It returns every request, and
// each round as one operation. Nothing queues, so the completion rate is
// the service's speed on one stream of requests.
func closedLoop(h http.Handler, rounds [][]tenantReq, end time.Time, hs *hostSpeed) (window, []opSample) {
	var w window
	var ops []opSample
	for _, reqs := range rounds {
		if !time.Now().Before(end) {
			break
		}
		t0 := time.Now()
		for _, req := range reqs {
			s := sample{due: time.Now()}
			s.started = s.due
			code, body, sent := serve(h, req, nil)
			s.sent = sent
			s.done = time.Now()
			s.latency = s.done.Sub(s.due)
			s.code = code
			s.check(req, body)
			w.samples = append(w.samples, s)
		}
		done := time.Now()
		ops = append(ops, opSample{end: done, lat: done.Sub(t0)})
		hs.tick()
	}
	return w, ops
}

// overSLO is the share of a window's requests that failed or took longer
// than the SLO; the window meets the SLO while it is at most 1-tenantTailQ.
func (w window) overSLO() float64 {
	over := 0
	for _, s := range w.samples {
		if s.bad != "" || ms(s.latency) > tenantSLOms {
			over++
		}
	}
	return float64(over) / float64(len(w.samples))
}

// searchRate finds the highest rate that meets the SLO. It climbs from
// the 2R window in steps of searchStep until a rate misses the SLO, then
// bisects (geometrically) between the last passing and the first failing
// rate, at most searchBisections times, in windows of searchWindowS. The
// answer interpolates between the final passing and failing rates where
// the share of requests over the SLO crosses 1-tenantTailQ, so it is not
// quantized to the bisection grid.
func searchRate(f *tenantFixture, base window, end time.Time) (float64, []window) {
	var ws []window
	try := func(rate float64) window {
		w := openLoop(f.handler, f.schedule(windowReqs(rate, searchWindowS)), rate, time.Now(), 0)
		ws = append(ws, w)
		return w
	}
	var lo, hi *window
	if ok, _ := base.meetsSLO(); ok {
		lo = &base
	} else {
		hi = &base
	}
	timeLeft := func() bool { return time.Now().Add(searchWindowS * time.Second).Before(end) }
	// A rate fails only if a second window at it fails too, so a burst of
	// outside load during one window does not end the climb.
	step := func(rate float64) {
		w := try(rate)
		if ok, _ := w.meetsSLO(); !ok && timeLeft() {
			w = try(rate)
		}
		if ok, _ := w.meetsSLO(); ok {
			lo = &w
		} else {
			hi = &w
		}
	}
	for hi == nil && timeLeft() {
		step(lo.rate * searchStep)
	}
	for lo == nil && timeLeft() {
		step(hi.rate / searchStep)
	}
	for i := 0; i < searchBisections && lo != nil && hi != nil && timeLeft(); i++ {
		step(math.Sqrt(lo.rate * hi.rate))
	}
	switch {
	case lo == nil:
		return hi.rate / searchStep, ws
	case hi == nil:
		return lo.rate, ws
	}
	limit := 1 - tenantTailQ
	fl, fh := lo.overSLO(), hi.overSLO()
	frac := 0.0
	if fh > fl {
		frac = math.Min(1, math.Max(0, (limit-fl)/(fh-fl)))
	}
	return lo.rate + frac*(hi.rate-lo.rate), ws
}

// ---------------------------------------------------------------------------
// Traced front door

// frontDoor is the service's admission + portal stack rebuilt from exported
// parts, with timing around validation and the plan estimate.
type frontDoor struct {
	handler       http.Handler
	validateNs    atomic.Int64
	validateCalls atomic.Int64
	estimateNs    atomic.Int64
	estimateCalls atomic.Int64
}

func newFrontDoor(svc *service.Service) *frontDoor {
	fd := &frontDoor{}
	cfg := service.DefaultConfig()
	pcfg := planner.DefaultConfig(cfg.Base)
	rates := cfg.Rates
	validate := func(def []byte) error {
		t := time.Now()
		err := core.ValidateDefinitionJSON(def)
		fd.validateNs.Add(int64(time.Since(t)))
		fd.validateCalls.Add(1)
		return err
	}
	// estimate mirrors the service's own estimate: bill the allotment and
	// plan the one task for its operating window.
	estimate := func(def []byte) (float64, float64, float64, error) {
		t := time.Now()
		defer func() {
			fd.estimateNs.Add(int64(time.Since(t)))
			fd.estimateCalls.Add(1)
		}()
		d, err := core.ParseDefinition(def)
		if err != nil {
			return 0, 0, 0, err
		}
		bill := rates.Compute(energy.Usage{EnergyJ: d.EnergyAllotted})
		plan, err := pcfg.Plan([]planner.Task{{ID: "estimate", Waypoints: d.Waypoints,
			EnergyJ: d.EnergyAllotted, DurationS: d.MaxDuration}})
		if err != nil {
			return bill.EnergyCharge, 0, 0, nil
		}
		ws, we, err := plan.OperatingWindow(pcfg, "estimate")
		if err != nil {
			return bill.EnergyCharge, 0, 0, nil
		}
		return bill.EnergyCharge, ws, we, nil
	}
	portal := cloud.NewPortal(svc.AppStore(), svc.Storage(), svc.VDR(), svc.Orders(), validate, estimate)
	timed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tm, _ := r.Context().Value(traceKey{}).(*reqTiming)
		if tm != nil {
			tm.in = time.Now()
		}
		portal.ServeHTTP(w, r)
		if tm != nil {
			tm.out = time.Now()
		}
	})
	api := http.NewServeMux()
	api.Handle("/", timed)
	fd.handler = cloud.NewAdmission(cloud.AdmissionConfig{}).Wrap(api)
	return fd
}

func traceTenantOpen(r run, f *tenantFixture, setupS float64) (*report, error) {
	rep := newReport()
	win := r.seconds * 0.4
	reqsR := f.schedule(windowReqs(tenantRate, win))
	reqs2R := f.schedule(windowReqs(2*tenantRate, win))

	// At R every other request is traced, for the tracing overhead; at 2R,
	// where queueing shows, every request is, for the per-layer split.
	fd := newFrontDoor(f.svc)
	wR := openLoop(fd.handler, reqsR, tenantRate, time.Now(), 2)
	fd.validateNs.Store(0)
	fd.validateCalls.Store(0)
	fd.estimateNs.Store(0)
	fd.estimateCalls.Store(0)
	gc0 := readGC()
	w2R := openLoop(fd.handler, reqs2R, 2*tenantRate, time.Now(), 1)
	gcFrac, gcCycles := gc0.since()
	account(rep, wR)
	account(rep, w2R)
	checkCreated(rep, f, wR, w2R)

	var wait []float64
	var handlerNs, handlerN [numKinds]int64
	var genNs, admissionNs, handlerTotal, latencyNs, sheds int64
	for i, s := range w2R.samples {
		genNs += int64(s.started.Sub(s.due))
		latencyNs += int64(s.latency)
		if s.code == http.StatusTooManyRequests {
			sheds++
		}
		if s.timing.in.IsZero() { // shed before reaching the handler
			admissionNs += int64(s.done.Sub(s.sent))
			continue
		}
		wait = append(wait, float64(s.timing.in.Sub(s.sent))/1e3)
		admissionNs += int64(s.timing.in.Sub(s.sent) + s.done.Sub(s.timing.out))
		k := reqs2R[i].kind
		handlerNs[k] += int64(s.timing.out.Sub(s.timing.in))
		handlerN[k]++
		handlerTotal += int64(s.timing.out.Sub(s.timing.in))
	}
	layers := map[string]float64{}
	for k := 0; k < numKinds; k++ {
		if handlerN[k] > 0 {
			layers["cloud.handler_us."+kindNames[k]] = float64(handlerNs[k]) / float64(handlerN[k]) / 1e3
		}
	}
	if n := fd.validateCalls.Load(); n > 0 {
		layers["core.validate_us"] = float64(fd.validateNs.Load()) / float64(n) / 1e3
	}
	if n := fd.estimateCalls.Load(); n > 0 {
		layers["planner.estimate_us"] = float64(fd.estimateNs.Load()) / float64(n) / 1e3
	}
	layers["cloud.admission_wait_us.p50"] = median(append([]float64(nil), wait...))
	layers["cloud.admission_wait_us.tail"], _ = tail(wait, tenantTailQ)
	layers["cloud.shed"] = float64(sheds)
	layers["loadgen.late_ms"] = w2R.lateTail()
	layers["runtime.gc_cpu_frac"] = gcFrac
	layers["runtime.gc_count"] = float64(gcCycles)
	// Coverage: the generator (lateness and goroutine start), admission
	// (wait and release) and the handler (validate and estimate run inside
	// it) against the latency from each request's due time. What is left
	// is building the request and its recorder.
	layers["trace.coverage"] = float64(genNs+admissionNs+handlerTotal) / float64(latencyNs)
	var plain, traced span
	for _, s := range wR.samples {
		if s.timing.in.IsZero() {
			plain.add(s.latency)
		} else {
			traced.add(s.latency)
		}
	}
	layers["trace.overhead_frac"] = traced.perCall(time.Nanosecond)/plain.perCall(time.Nanosecond) - 1
	rep.note("tenant-open traced: window at R=%d/s with every other request traced, window at 2R fully traced; set-up %.3g s", tenantRate, setupS)
	setLayers(rep, layers)
	return rep, nil
}
