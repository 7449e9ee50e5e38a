package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"vodplace/internal/epf"
	"vodplace/internal/obs"
	"vodplace/internal/serve"
)

const (
	serveVideos = 10000
	// setups is how many times a serve workload starts its daemon; setup_s
	// and the cold-start place_s are medians over them.
	setups = 3
)

// layerNames fixes the per-layer metrics every workload reports, in order.
// A layer a workload does not exercise reads 0. The last entries are
// end-to-end figures that only some workloads produce (so they cannot be
// bounded across all of them); they are reported here for the record.
var layerNames = []struct{ name, unit string }{
	{"demand.instance_s", "s"},
	{"epf.init_s", "s"},
	{"epf.descent_s", "s"},
	{"epf.round_s", "s"},
	{"epf.reduce_s", "s"},
	{"epf.passes", "count"},
	{"epf.blocks_optimized", "count"},
	{"epf.lb_evals", "count"},
	{"epf.line_searches", "count"},
	{"epf.dual_refreshes", "count"},
	{"epf.round_resolves", "count"},
	{"epf.warm_frac", "ratio"},
	{"epf.alloc_mb", "MB"},
	{"verify.audit_ms", "ms"},
	{"serve.new_s", "s"},
	{"serve.demand_post_ms", "ms"},
	{"serve.solve_ms", "ms"},
	{"serve.build_ms", "ms"},
	{"serve.dirty", "count"},
	{"serve.rebuilt_frac", "ratio"},
	{"serve.swap_frac", "ratio"},
	{"serve.lookup_ns", "ns"},
	{"serve.handler_p50_ms", "ms"},
	{"serve.handler_p99_ms", "ms"},
	{"http.overhead_p50_ms", "ms"},
	{"runtime.gc_pause_p99_ms", "ms"},
	{"runtime.alloc_b_per_req", "B"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"fresh.unattributed_ms", "ms"},
	{"fresh.samples", "count"},
	{"gap_pct", "%"},
	{"error_frac", "ratio"},
	{"route_p50_ms", "ms"},
	{"route_p99_ms", "ms"},
	{"route_p50_ms.hi", "ms"},
	{"route_p99_ms.hi", "ms"},
	{"route_max_rps", "1/s"},
	{"churn_routes", "count"},
}

// setLayers records v in layerNames order.
func (r *result) setLayers(v map[string]float64) {
	for _, l := range layerNames {
		r.layer(l.name, l.unit, v[l.name])
	}
}

// routeWindow is the window, in requests, over which route_p99_ms (lo rate)
// takes
// each p99 before the median across windows: three seconds at the lo rate,
// so every window's p99 has 30 samples beyond it.
const routeWindow = 3 * int(loRate)

// setE2E records the end-to-end metrics, in BENCHMARK.json order.
func (r *result) setE2E(setupS, placeS, peakMB float64) {
	r.e2eMetric("setup_s", "s", setupS)
	r.e2eMetric("place_s", "s", placeS)
	r.e2eMetric("peak_rss_mb", "MB", peakMB)
}

// routeLayerValues fills the per-layer figures of the lo-rate route phase.
func routeLayerValues(v map[string]float64, lo *loadRun, rl routeLayers, rt0, rt1 runtimeSample) {
	v["route_p50_ms"] = lo.latQ(0.5)
	v["route_p99_ms"] = windowQuantile(lo.lat, routeWindow, 0.99)
	v["serve.lookup_ns"] = rl.lookupNS
	v["serve.handler_p50_ms"] = rl.handlerP50
	v["serve.handler_p99_ms"] = rl.handlerP99
	v["http.overhead_p50_ms"] = lo.latQ(0.5) - lo.lateQ(0.5) - rl.handlerP50
	v["runtime.gc_pause_p99_ms"] = pauseQuantileMS(rt0, rt1, 0.99)
	v["runtime.alloc_b_per_req"] = rl.allocPerReq
	v["loadgen.late_p99_ms"] = lo.lateQ(0.99)
	v["loadgen.backlog_max"] = float64(lo.backlogMax)
}

// routeBreakdown prints the lo-rate route p50 as generator lateness +
// handler + HTTP/transport remainder. Medians do not add, so the remainder
// absorbs the difference; it is the http.overhead_p50_ms layer.
func routeBreakdown(r *result, lo *loadRun, rl routeLayers) {
	writeBreakdown(&r.report, "route_p50_ms (lo)", "ms", lo.latQ(0.5), withRemainder(lo.latQ(0.5), []part{
		{"loadgen.late_p50", lo.lateQ(0.5)},
		{"serve.handler_p50", rl.handlerP50},
	}))
}

// settle ends a set-up before a timed phase: it collects the set-up's
// garbage (the discarded daemons, the generated traces) and returns it to
// the OS, so neither a GC cycle over set-up garbage nor its pages land in
// the phase's latency or peak memory, then starts the peak-RSS interval.
func settle() error {
	debug.FreeOSMemory()
	return clearPeakRSS()
}

// phaseSplit divides the timed phase among a workload's parts.
func phaseSplit(seconds int, frac float64) time.Duration {
	return time.Duration(frac * float64(seconds) * float64(time.Second))
}

// addStats accumulates the Stats fields the epf.* layers report.
func addStats(sum *epf.Stats, x epf.Stats) {
	sum.InitTime += x.InitTime
	sum.LPTime += x.LPTime
	sum.RoundTime += x.RoundTime
	sum.ReduceTime += x.ReduceTime
	sum.Passes += x.Passes
	sum.BlocksOptimized += x.BlocksOptimized
	sum.LBEvals += x.LBEvals
	sum.LineSearches += x.LineSearches
	sum.DualRefreshes += x.DualRefreshes
	sum.RoundResolves += x.RoundResolves
}

// epfLayerValues fills the epf.* layers from n solves' summed Stats, as
// per-solve means.
func epfLayerValues(v map[string]float64, st epf.Stats, n float64) {
	v["epf.init_s"] = st.InitTime.Seconds() / n
	v["epf.descent_s"] = st.LPTime.Seconds() / n
	v["epf.round_s"] = st.RoundTime.Seconds() / n
	v["epf.reduce_s"] = st.ReduceTime.Seconds() / n
	v["epf.passes"] = float64(st.Passes) / n
	v["epf.blocks_optimized"] = float64(st.BlocksOptimized) / n
	v["epf.lb_evals"] = float64(st.LBEvals) / n
	v["epf.line_searches"] = float64(st.LineSearches) / n
	v["epf.dual_refreshes"] = float64(st.DualRefreshes) / n
	v["epf.round_resolves"] = float64(st.RoundResolves) / n
}

// measureLo runs the lo-rate /route phase, with per-layer attribution when
// traced; the runtime readings bracket the phase either way.
func measureLo(r *result, p *plane, dur time.Duration, traced bool) (*loadRun, routeLayers, runtimeSample, runtimeSample, error) {
	rt0 := readRuntime()
	if !traced {
		lo := p.routePhase(r, "lo", loRate, dur)
		return lo, routeLayers{}, rt0, readRuntime(), nil
	}
	lo, rl, err := p.tracedRoutePhase(r, "lo", loRate, dur)
	return lo, rl, rt0, readRuntime(), err
}

// daemon is one started placement service with its set-up timings.
type daemon struct {
	p        *plane
	rec      *obs.Recorder
	trace    *bytes.Buffer
	setupS   float64 // synthesis + build + serve.New + first /route 200
	buildS   float64
	newS     float64 // serve.New alone
	coldS    float64 // serve.New + first /route 200: time to serve a certified placement
	allocNew float64 // MB allocated across serve.New
}

// startDaemon generates a 10k-video instance from seed and starts the
// placement service on it: serve.New solves and audits the initial
// placement, then the handler is served and probed until /route answers.
func startDaemon(seed int64, traced bool) (*daemon, error) {
	d := &daemon{}
	t0 := time.Now()
	b, tr := synth(serveVideos, seed)
	t1 := time.Now()
	inst, err := b.Instance(tr, 7)
	if err != nil {
		return nil, err
	}
	d.buildS = elapsedSince(t1)
	cfg := serve.Config{Solver: solverOptions(seed)}
	if traced {
		d.trace = &bytes.Buffer{}
		d.rec = obs.New(d.trace)
		cfg.Recorder = d.rec
	}
	t2 := time.Now()
	rt0 := readRuntime()
	srv, err := serve.New(inst, cfg)
	d.allocNew = allocMB(rt0, readRuntime())
	d.newS = elapsedSince(t2)
	if err != nil {
		return nil, err
	}
	d.p, err = publish(srv, seed)
	if err != nil {
		srv.Close()
		return nil, err
	}
	d.coldS = elapsedSince(t2)
	d.setupS = elapsedSince(t0)
	return d, nil
}

// startDaemons starts the service `setups` times on successive sub-seeds,
// keeps the last one running and closes the others. It returns the kept
// daemon and the median set-up and cold-start times.
func startDaemons(r *result, seed int64, traced bool) (*daemon, float64, float64, error) {
	var setupS, coldS []float64
	var d *daemon
	for k := range setups {
		var err error
		d, err = startDaemon(subSeed(seed, k), traced)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("set-up %d: %w", k, err)
		}
		r.attempted++
		setupS = append(setupS, d.setupS)
		coldS = append(coldS, d.coldS)
		r.printf("set-up %d (seed %d): %.3f s, of which build %.3f s, serve.New %.3f s, to first /route %.3f s\n",
			k, subSeed(seed, k), d.setupS, d.buildS, d.newS, d.coldS)
		if k < setups-1 {
			if err := d.p.close(); err != nil {
				return nil, 0, 0, err
			}
		}
	}
	return d, median(setupS), median(coldS), nil
}

// solveTelemetry is what the recorder received about the solves of one
// trace: phase spans per solve stream, the solver's published Stats, and
// the serving-plane events.
type solveTelemetry struct {
	spans    map[string]map[string]float64 // stream → phase → ms
	stats    map[string]epf.Stats          // stream → Stats
	resolves []obs.Event                   // serve_resolve "done"
	swaps    []obs.Event                   // serve_swap
}

func readTelemetry(rec *obs.Recorder, trace *bytes.Buffer) (*solveTelemetry, error) {
	if err := rec.Flush(); err != nil {
		return nil, err
	}
	evs, err := obs.ParseTrace(bytes.NewReader(trace.Bytes()))
	if err != nil {
		return nil, err
	}
	t := &solveTelemetry{spans: map[string]map[string]float64{}, stats: map[string]epf.Stats{}}
	for _, e := range evs {
		switch e.K {
		case "span":
			if t.spans[e.Stream] == nil {
				t.spans[e.Stream] = map[string]float64{}
			}
			t.spans[e.Stream][e.Phase] += e.MS
		case "serve_resolve":
			if e.Phase == "done" {
				t.resolves = append(t.resolves, e)
			}
		case "serve_swap":
			t.swaps = append(t.swaps, e)
		}
	}
	prog, err := rec.ProgressJSON()
	if err != nil {
		return nil, err
	}
	var snap struct {
		KV map[string]json.RawMessage `json:"kv"`
	}
	if err := json.Unmarshal(prog, &snap); err != nil {
		return nil, err
	}
	for k, raw := range snap.KV {
		if stream, ok := strings.CutPrefix(k, "epf_stats."); ok {
			var st epf.Stats
			if err := json.Unmarshal(raw, &st); err != nil {
				return nil, err
			}
			t.stats[stream] = st
		}
	}
	return t, nil
}

// resolveStreams lists the telemetry's re-solve streams serve.v2, v3, …
func (t *solveTelemetry) resolveStreams() []string {
	var out []string
	for s := range t.stats {
		if v, ok := strings.CutPrefix(s, "serve.v"); ok {
			if n, err := strconv.Atoi(v); err == nil && n >= 2 {
				out = append(out, s)
			}
		}
	}
	return out
}

// streamStats returns each listed stream's published solver Stats with
// the phase times taken from the stream's spans.
func (t *solveTelemetry) streamStats(streams []string) []epf.Stats {
	out := make([]epf.Stats, len(streams))
	for i, s := range streams {
		sp := t.spans[s]
		out[i] = t.stats[s]
		out[i].InitTime = time.Duration(sp["init"] * 1e6)
		out[i].LPTime = time.Duration(sp["descent"] * 1e6)
		out[i].RoundTime = time.Duration(sp["rounding"] * 1e6)
		out[i].ReduceTime = time.Duration(sp["reduce"] * 1e6)
	}
	return out
}

// runServeRoute is the serve-route workload: the placement service at 10k
// videos answers open-loop /route traffic at the lo rate, at the hi rate,
// and on a rate ladder, with no demand posted, so the solver stays idle.
func runServeRoute(seed int64, seconds int, traced bool) (*result, error) {
	r := &result{}
	d, setupS, coldS, err := startDaemons(r, seed, traced)
	if err != nil {
		return nil, err
	}
	if err := settle(); err != nil {
		d.p.close()
		return nil, err
	}
	p := d.p
	lo, rl, rt0, rt1, err := measureLo(r, p, phaseSplit(seconds, 0.4), traced)
	if err != nil {
		p.close()
		return nil, err
	}
	hi := p.routePhase(r, "hi", hiRate, phaseSplit(seconds, 0.25))
	maxRPS, steps := ladder(hiRate, limitMS, 500*time.Millisecond, phaseSplit(seconds, 0.35), senders, p.rc.send)
	for _, s := range steps {
		r.attempted += len(s.run.lat)
		r.failed += s.run.failed
		r.printf("  ladder %8.0f rps offered, %8.1f achieved: p99 %.3f ms, late p50 of last tenth %.3f ms, backlog max %d, meets limit %v\n",
			s.run.rate, s.run.achieved(), s.run.latQ(0.99), median(s.run.late[len(s.run.late)*9/10:]), s.run.backlogMax, s.ok)
	}
	peak, err := peakRSSMB()
	if err != nil {
		p.close()
		return nil, err
	}
	gap, gerr := p.statusGapPct()
	if err := p.close(); err != nil {
		return nil, err
	}
	if gerr != nil {
		return nil, gerr
	}
	p.checkOutputs(r)
	r.printf("route_max_rps %.1f (p99 ≤ %g ms, backlog not growing)\n", maxRPS, limitMS)
	r.setE2E(setupS, coldS, peak)

	v := map[string]float64{
		"serve.new_s":       d.newS,
		"demand.instance_s": d.buildS,
		"epf.alloc_mb":      d.allocNew,
		"gap_pct":           gap,
		"route_p50_ms.hi":   hi.latQ(0.5),
		"route_p99_ms.hi":   hi.latQ(0.99),
		"route_max_rps":     maxRPS,
	}
	routeLayerValues(v, lo, rl, rt0, rt1)
	if traced {
		t, err := readTelemetry(d.rec, d.trace)
		if err != nil {
			return nil, err
		}
		epfLayerValues(v, t.streamStats([]string{"serve.v1"})[0], 1)
		writeBreakdown(&r.report, "cold start: serve.New + first /route (last set-up)", "s", d.coldS, withRemainder(d.coldS, []part{
			{"epf.init", v["epf.init_s"]},
			{"epf.descent", v["epf.descent_s"]},
			{"epf.round", v["epf.round_s"]},
		}))
		r.printf("  (unattributed holds the audit, the snapshot build and the first /route; epf.reduce %.4g s is inside descent and rounding)\n", v["epf.reduce_s"])
		routeBreakdown(r, lo, rl)
	}
	r.setLayers(v)
	return r, nil
}

// runServeFresh is the serve-fresh workload: the 10k-video service answers
// /route at the lo rate while one closed-loop client POSTs 20-entry demand
// batches, each time waiting until the snapshot containing the batch is
// published. place_s is the median freshness: POST sent to that snapshot
// observed. The timed phase is split over `setups` rounds, each on a daemon
// started from its own generated instance, because re-solve time varies
// from instance to instance about as much as a regression bound allows;
// pooling the rounds' samples keeps one seed's instance from setting the
// run's figures.
func runServeFresh(seed int64, seconds int, traced bool) (*result, error) {
	r := &result{}
	var setupS, freshS, postMS, allocs, churns []float64
	var lo loadRun
	var rls []routeLayers
	var rt0, rt1 runtimeSample
	var resolves []obs.Event
	var solves []epf.Stats
	var rebuilt, rows, peak, gap float64
	var newS, buildS float64
	for k := range setups {
		s := subSeed(seed, k)
		d, err := startDaemon(s, traced)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		r.attempted++
		setupS = append(setupS, d.setupS)
		newS, buildS = newS+d.newS/setups, buildS+d.buildS/setups
		r.printf("round %d (seed %d): set-up %.3f s, of which build %.3f s, serve.New %.3f s, to first /route %.3f s\n",
			k, s, d.setupS, d.buildS, d.newS, d.coldS)
		rd, err := freshRound(r, d, s, phaseSplit(seconds, 1.0/setups), traced)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", k, err)
		}
		for _, f := range rd.fresh {
			freshS = append(freshS, f.freshS)
			postMS = append(postMS, f.postMS)
		}
		for range rd.rejects {
			freshS = append(freshS, math.Inf(1))
		}
		lo.lat = append(lo.lat, rd.lo.lat...)
		lo.late = append(lo.late, rd.lo.late...)
		lo.failed += rd.lo.failed
		lo.backlogMax = max(lo.backlogMax, rd.lo.backlogMax)
		lo.elapsed += rd.lo.elapsed
		rls = append(rls, rd.rl)
		if k == 0 {
			rt0 = rd.rt0
		}
		rt1 = rd.rt1
		allocs = append(allocs, rd.allocMB/float64(len(rd.fresh)))
		churns = append(churns, rd.churn)
		peak, gap = max(peak, rd.peak), rd.gap
		if traced {
			resolves = append(resolves, rd.telemetry.resolves...)
			solves = append(solves, rd.telemetry.streamStats(rd.telemetry.resolveStreams())...)
			for _, e := range rd.telemetry.swaps {
				rebuilt += float64(e.Rebuilt)
				rows += float64(e.Rows)
			}
		}
	}
	fs := sorted(freshS)
	r.printf("freshness n=%d: p50 %.3f s, max %.3f s", len(fs), quantile(fs, 0.5), fs[len(fs)-1])
	if q, ok := tailQuantile(len(fs)); ok && q > 0.5 {
		r.printf(", %s %.3f s", pctName(q), quantile(fs, q))
	} else {
		r.printf(" (too few samples for a tail percentile with ≥10 beyond it)")
	}
	r.printf("\n")
	r.printf("route lo pooled n=%d: p50 %.3f ms, p99 %.3f ms\n", len(lo.lat), lo.latQ(0.5), lo.latQ(0.99))
	r.setE2E(median(setupS), quantile(fs, 0.5), peak)

	v := map[string]float64{
		"serve.new_s":          newS,
		"demand.instance_s":    buildS,
		"serve.demand_post_ms": mean(postMS),
		"epf.alloc_mb":         mean(allocs),
		"fresh.samples":        float64(len(fs)),
		"gap_pct":              gap,
		"churn_routes":         mean(churns),
	}
	var rl routeLayers
	for _, x := range rls {
		rl.handlerP50 += x.handlerP50 / setups
		rl.handlerP99 += x.handlerP99 / setups
		rl.allocPerReq += x.allocPerReq / setups
		rl.lookupNS += x.lookupNS / setups
	}
	routeLayerValues(v, &lo, rl, rt0, rt1)
	if traced && len(resolves) > 0 {
		var sum epf.Stats
		for _, x := range solves {
			addStats(&sum, x)
		}
		epfLayerValues(v, sum, float64(max(1, len(solves))))
		var solve, audit, build, dirty, warm []float64
		var swapped float64
		for _, e := range resolves {
			solve = append(solve, e.SolveMS)
			audit = append(audit, e.AuditMS)
			build = append(build, e.BuildMS)
			dirty = append(dirty, float64(e.Dirty))
			warm = append(warm, e.WarmFrac)
			if e.Verdict == "swapped" {
				swapped++
			}
		}
		v["serve.solve_ms"] = mean(solve)
		v["verify.audit_ms"] = mean(audit)
		v["serve.build_ms"] = mean(build)
		v["serve.dirty"] = mean(dirty)
		v["epf.warm_frac"] = mean(warm)
		v["serve.swap_frac"] = swapped / float64(len(resolves))
		if rows > 0 {
			v["serve.rebuilt_frac"] = rebuilt / rows
		}
		var okFresh []float64
		for _, f := range freshS {
			if !math.IsInf(f, 1) {
				okFresh = append(okFresh, f)
			}
		}
		meanFresh := 1e3 * mean(okFresh)
		withRest := withRemainder(meanFresh, []part{
			{"serve.demand_post", v["serve.demand_post_ms"]},
			{"serve.solve", v["serve.solve_ms"]},
			{"verify.audit", v["verify.audit_ms"]},
			{"serve.build", v["serve.build_ms"]},
		})
		v["fresh.unattributed_ms"] = withRest[len(withRest)-1].v
		writeBreakdown(&r.report, "freshness (mean per batch)", "ms", meanFresh, withRest)
		writeBreakdown(&r.report, "  of which serve.solve", "ms", v["serve.solve_ms"], withRemainder(v["serve.solve_ms"], []part{
			{"epf.init", 1e3 * v["epf.init_s"]},
			{"epf.descent", 1e3 * v["epf.descent_s"]},
			{"epf.round", 1e3 * v["epf.round_s"]},
		}))
		routeBreakdown(r, &lo, rl)
	}
	r.setLayers(v)
	return r, nil
}

// freshOutcome is what one serve-fresh round measured.
type freshOutcome struct {
	fresh     []freshSample
	rejects   []string // batches whose re-solve was not swapped in
	lo        *loadRun
	rl        routeLayers
	rt0, rt1  runtimeSample
	allocMB   float64 // heap allocated over the round, all goroutines
	churn     float64
	peak, gap float64
	telemetry *solveTelemetry
}

// freshRound runs the closed-loop demand client beside lo-rate /route
// traffic on d for dur, waits for the last batch's snapshot, checks the
// outputs, and closes the daemon.
func freshRound(r *result, d *daemon, seed int64, dur time.Duration, traced bool) (*freshOutcome, error) {
	p := d.p
	out := &freshOutcome{}
	batches := demandBatches(p.ids, 1000, seed)
	if err := settle(); err != nil {
		p.close()
		return nil, err
	}
	deadline := time.Now().Add(dur)
	freshDone := make(chan error, 1)
	all0 := readRuntime()
	go func() {
		for b := 0; time.Now().Before(deadline) && b < len(batches); b++ {
			fs, err := p.postBatch(batches[b])
			if errors.Is(err, errNotSwapped) {
				// The batch waits for the next swap; it counts as failed
				// and as missing any freshness limit.
				out.rejects = append(out.rejects, err.Error())
				continue
			}
			if err != nil {
				freshDone <- err
				return
			}
			out.fresh = append(out.fresh, fs)
		}
		freshDone <- nil
	}()
	var lerr error
	out.lo, out.rl, out.rt0, out.rt1, lerr = measureLo(r, p, dur, traced)
	ferr := <-freshDone
	out.allocMB = allocMB(all0, readRuntime())
	r.attempted += len(out.fresh) + len(out.rejects)
	r.failed += len(out.rejects)
	for _, e := range out.rejects {
		r.printf("FAILED demand batch: %s\n", e)
	}
	if ferr != nil {
		return nil, fmt.Errorf("demand client: %w", ferr)
	}
	var perr, gerr error
	out.peak, perr = peakRSSMB()
	out.gap, gerr = p.statusGapPct()
	cerr := p.close()
	for _, e := range []error{lerr, perr, gerr, cerr} {
		if e != nil {
			return nil, e
		}
	}
	if len(out.fresh) == 0 {
		return nil, fmt.Errorf("no demand batch completed in %s", dur)
	}
	p.checkOutputs(r)
	if st := p.srv.Stats(); st.ResolvesSwapped != int64(len(out.fresh)) {
		r.problemf("%d batches published but %d resolves swapped", len(out.fresh), st.ResolvesSwapped)
	}
	out.churn = churn(p.retained(), p.ids)
	if traced {
		var err error
		if out.telemetry, err = readTelemetry(d.rec, d.trace); err != nil {
			return nil, err
		}
	}
	return out, nil
}
