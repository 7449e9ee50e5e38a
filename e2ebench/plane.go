package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"vodplace/internal/catalog"
	"vodplace/internal/core"
	"vodplace/internal/demand"
	"vodplace/internal/epf"
	"vodplace/internal/obs"
	"vodplace/internal/serve"
	"vodplace/internal/topology"
	"vodplace/internal/workload"
)

// Generator settings shared by every workload (the vodplace CLI's, except
// that the office count is 20: the CLI default of 55 does not converge at
// ε 0.02 within the pass cap).
const (
	offices   = 20
	passCap   = 200
	epsilon   = 0.02
	zipfS     = 0.8 // popularity skew of /route lookups and demand batches
	numKeys   = 1 << 15
	loRate    = 1000.0 // /route requests per second, fixed
	hiRate    = 4000.0
	limitMS   = 5.0 // /route p99 latency limit for route_max_rps
	batchSize = 20  // /demand entries per batch
	batchAdd  = 25  // aggregate demand added per entry
)

// senders is the number of load-generator connections: one per CPU, at
// most two, so the generator never outnumbers the cores it shares with the
// server.
var senders = min(2, runtime.NumCPU())

// deploymentSeed fixes the office topology and the video library: every
// run measures the same deployment, and its seed varies the request trace
// the placement is computed from, the solver's block order, the /route
// keys and the demand batches. Solve time varies by about as much from one
// topology or library to the next as a regression bound allows, so drawing
// them per run would bury a regression under input noise.
const deploymentSeed = 1

// synth generates one workload's inputs: the fixed deployment, eight days
// of request trace drawn from seed, and the builder that turns the first
// seven days into a placement instance.
func synth(videos int, seed int64) (*demand.Builder, *workload.Trace) {
	g := topology.Random(offices, 1.4, deploymentSeed)
	lib := catalog.Generate(catalog.Config{NumVideos: videos, Weeks: 2}, deploymentSeed+10)
	tr := workload.GenerateTrace(lib, workload.TraceConfig{
		Days: 8, NumVHOs: offices, RequestsPerVideoPerDay: 4,
	}, seed+20)
	return &demand.Builder{
		G: g, Lib: lib,
		DiskGB:      core.UniformDisk(lib, offices, 2.0),
		LinkCapMbps: core.UniformLinks(g, 1000),
		Cfg:         demand.Config{Slices: 2, WindowSec: 3600, HorizonDays: 7},
	}, tr
}

// solverOptions is the CLI solver mode (incremental pricing, parallel
// rounding) at the benchmark's tolerance and pass cap.
func solverOptions(seed int64) epf.Options {
	return epf.Options{
		Seed: seed, MaxPasses: passCap, Epsilon: epsilon,
		IncrementalPricing: true, ParallelRound: true,
	}
}

// subSeed derives the seed of the k-th generated input of a run.
func subSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// plane is a placement server answering HTTP on a loopback listener in
// this process, plus the client that drives it and the snapshots it has
// published so far.
type plane struct {
	srv      *serve.Server
	hs       *http.Server
	serveErr chan error
	rc       *routeClient
	ids      []int // served video ids, most demanded first

	mu    sync.Mutex
	snaps map[uint64]*serve.Snapshot
}

// popularity returns the snapshot's video ids ordered by total demand,
// most demanded first (ties by id). It must run before any demand update:
// the server patches the instance's demand rows in place.
func popularity(snap *serve.Snapshot) []int {
	type row struct {
		id  int
		agg float64
	}
	rows := make([]row, len(snap.Inst.Demands))
	for vi, d := range snap.Inst.Demands {
		rows[vi].id = d.Video
		for _, a := range d.Agg {
			rows[vi].agg += a
		}
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].agg != rows[b].agg {
			return rows[a].agg > rows[b].agg
		}
		return rows[a].id < rows[b].id
	})
	ids := make([]int, len(rows))
	for i, r := range rows {
		ids[i] = r.id
	}
	return ids
}

// routeKeys draws n lookups: a Zipf-popular video at a uniform office.
func routeKeys(ids []int, n int, seed int64) []routeKey {
	smp := workload.NewSampler(workload.ZipfWeights(len(ids), zipfS), seed)
	keys := make([]routeKey, n)
	for i := range keys {
		keys[i] = routeKey{ids[smp.Next()], smp.Intn(offices)}
	}
	return keys
}

// publish serves srv on a loopback listener and returns once a /route
// lookup has answered 200.
func publish(srv *serve.Server, seed int64) (*plane, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	snap := srv.Snapshot()
	p := &plane{
		srv:      srv,
		hs:       &http.Server{Handler: srv.Handler()},
		serveErr: make(chan error, 1),
		ids:      popularity(snap),
		snaps:    map[uint64]*serve.Snapshot{snap.Version: snap},
	}
	go func() { p.serveErr <- p.hs.Serve(ln) }()
	p.rc = newRouteClient("http://"+ln.Addr().String(), routeKeys(p.ids, numKeys, seed), senders)
	deadline := time.Now().Add(10 * time.Second)
	for {
		err = p.rc.send(0, 1) // index 1 is not sampled
		if err == nil {
			return p, nil
		}
		if time.Now().After(deadline) {
			p.close()
			return nil, fmt.Errorf("first /route: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// close stops the HTTP server and the placement server and waits for both.
func (p *plane) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := p.hs.Shutdown(ctx)
	if serr := <-p.serveErr; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	p.rc.close()
	p.srv.Close()
	return err
}

func (p *plane) retain(s *serve.Snapshot) {
	p.mu.Lock()
	p.snaps[s.Version] = s
	p.mu.Unlock()
}

// retained returns the published snapshots in version order.
func (p *plane) retained() []*serve.Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*serve.Snapshot, 0, len(p.snaps))
	for _, s := range p.snaps {
		out = append(out, s)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Version < out[b].Version })
	return out
}

// checkOutputs verifies what the server published: every retained snapshot
// is certified, versions run without a gap, and every sampled /route body
// is byte-identical to Snapshot.AppendRoute on the snapshot of the version
// the body names. Each mismatch counts as a failed operation.
func (p *plane) checkOutputs(r *result) {
	snaps := p.retained()
	byVersion := make(map[uint64]*serve.Snapshot, len(snaps))
	for i, s := range snaps {
		byVersion[s.Version] = s
		if !s.Certified {
			r.problemf("snapshot v%d is not certified", s.Version)
		}
		if s.Version != snaps[0].Version+uint64(i) {
			r.problemf("published versions skip v%d", snaps[0].Version+uint64(i))
			break
		}
	}
	var buf []byte
	for _, smp := range p.rc.samples {
		v, err := bodyVersion(smp.body)
		if err != nil {
			r.failed++
			r.problemf("/route %v: %v", smp.key, err)
			continue
		}
		s, ok := byVersion[v]
		if !ok {
			r.failed++
			r.problemf("/route %v names unpublished version %d", smp.key, v)
			continue
		}
		buf, _ = s.AppendRoute(buf[:0], smp.key.video, smp.key.vho)
		if !bytes.Equal(buf, smp.body) {
			r.failed++
			r.problemf("/route %v body %q, snapshot v%d says %q", smp.key, smp.body, v, buf)
		}
	}
	r.printf("checked %d sampled /route bodies against %d published snapshots\n", len(p.rc.samples), len(snaps))
}

// bodyVersion extracts the "version" field of a /route body.
func bodyVersion(body []byte) (uint64, error) {
	var v struct {
		Version *uint64 `json:"version"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return 0, err
	}
	if v.Version == nil {
		return 0, fmt.Errorf("body %q has no version", body)
	}
	return *v.Version, nil
}

// routePhase runs one open-loop /route phase, counts its operations into r,
// and prints its figures under label.
func (p *plane) routePhase(r *result, label string, rate float64, dur time.Duration) *loadRun {
	run := openLoop(rate, dur, senders, p.rc.send)
	r.attempted += len(run.lat)
	r.failed += run.failed
	r.printf("route %-4s %6.0f rps offered, %8.1f achieved, n=%d: p50 %.3f ms, p99 %.3f ms, late p99 %.3f ms, backlog max %d, failed %d\n",
		label, rate, run.achieved(), len(run.lat), run.latQ(0.5), run.latQ(0.99), run.lateQ(0.99), run.backlogMax, run.failed)
	return run
}

// routeLayers is the per-layer attribution of one /route phase.
type routeLayers struct {
	handlerP50, handlerP99 float64 // server handler latency, ms (/metrics delta)
	allocPerReq            float64 // heap bytes allocated per request, client and server
	lookupNS               float64 // Snapshot.AppendRoute, ns per lookup
}

// tracedRoutePhase is routePhase with per-layer attribution: the /metrics
// route-latency histogram is scraped before and after, runtime allocation
// counters are read around the phase, and afterwards the same key stream is
// answered in-process by Snapshot.AppendRoute.
func (p *plane) tracedRoutePhase(r *result, label string, rate float64, dur time.Duration) (*loadRun, routeLayers, error) {
	var rl routeLayers
	h0, err := p.scrapeRouteHist()
	if err != nil {
		return nil, rl, err
	}
	rt0 := readRuntime()
	run := p.routePhase(r, label, rate, dur)
	rt1 := readRuntime()
	h1, err := p.scrapeRouteHist()
	if err != nil {
		return nil, rl, err
	}
	d := h1.Sub(h0)
	rl.handlerP50, rl.handlerP99 = 1e3*d.Quantile(0.5), 1e3*d.Quantile(0.99)
	rl.allocPerReq = float64(rt1.allocBytes-rt0.allocBytes) / float64(len(run.lat))
	rl.lookupNS = p.lookupNS()
	return run, rl, nil
}

func (p *plane) scrapeRouteHist() (*obs.PromHist, error) {
	body, err := p.rc.get("/metrics")
	if err != nil {
		return nil, err
	}
	samples, err := obs.ParseProm(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	h := obs.ExtractPromHist(samples, obs.PromReqDurName, map[string]string{"endpoint": "route"})
	if h == nil {
		return nil, fmt.Errorf("/metrics has no route latency histogram")
	}
	return h, nil
}

// lookupNS times Snapshot.AppendRoute over the phase's key stream on the
// current snapshot, in ns per lookup.
func (p *plane) lookupNS() float64 {
	snap := p.srv.Snapshot()
	buf := make([]byte, 0, 256)
	const rounds = 8
	t0 := time.Now()
	for range rounds {
		for _, k := range p.rc.keys {
			buf, _ = snap.AppendRoute(buf[:0], k.video, k.vho)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(p.rc.keys))
}

// demandBatches draws n /demand batches: Zipf-popular videos at uniform
// offices, each adding batchAdd to the aggregate demand.
func demandBatches(ids []int, n int, seed int64) [][]serve.DemandUpdate {
	smp := workload.NewSampler(workload.ZipfWeights(len(ids), zipfS), seed)
	out := make([][]serve.DemandUpdate, n)
	for b := range out {
		out[b] = make([]serve.DemandUpdate, batchSize)
		for i := range out[b] {
			out[b][i] = serve.DemandUpdate{Video: ids[smp.Next()], VHO: smp.Intn(offices), Add: batchAdd}
		}
	}
	return out
}

// freshSample is one demand batch's trip from POST to published snapshot.
type freshSample struct {
	postMS  float64 // POST round trip
	freshS  float64 // POST sent to the snapshot containing the batch seen
	version uint64
}

// errNotSwapped marks a demand batch whose re-solve the server rejected
// (audit, convergence): a failed operation, but not a wrong output, since
// the server keeps serving its certified snapshot.
var errNotSwapped = errors.New("re-solve not swapped")

// rejected sums the server's counts of resolves that ended without a swap.
func rejected(st serve.Stats) int64 {
	return st.AuditRejected + st.Unconverged + st.Cancelled + st.Failed
}

// postBatch is the closed-loop demand client's step: POST one batch, then
// wait until the server publishes the snapshot that contains it. The
// resolver is idle when the POST lands (the previous batch's snapshot has
// been published), so the next version is the first to contain the batch.
func (p *plane) postBatch(batch []serve.DemandUpdate) (freshSample, error) {
	var fs freshSample
	body, err := json.Marshal(batch)
	if err != nil {
		return fs, err
	}
	v0 := p.srv.Snapshot().Version
	rej0 := rejected(p.srv.Stats())
	t0 := time.Now()
	resp, err := p.rc.client.Post(p.rc.base+"/demand", "application/json", bytes.NewReader(body))
	if err != nil {
		return fs, err
	}
	var ack struct {
		Accepted int `json:"accepted"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	fs.postMS = ms(time.Since(t0))
	if resp.StatusCode != http.StatusAccepted || err != nil || ack.Accepted != len(batch) {
		return fs, fmt.Errorf("POST /demand: status %d, accepted %d of %d (%v)", resp.StatusCode, ack.Accepted, len(batch), err)
	}
	for {
		if s := p.srv.Snapshot(); s.Version > v0 {
			fs.freshS = time.Since(t0).Seconds()
			fs.version = s.Version
			p.retain(s)
			return fs, nil
		}
		if st := p.srv.Stats(); rejected(st) > rej0 {
			return fs, fmt.Errorf("%w: resolve after v%d: %s", errNotSwapped, v0, st.LastReject)
		}
		if time.Since(t0) > time.Minute {
			return fs, fmt.Errorf("no snapshot after v%d within a minute", v0)
		}
		time.Sleep(time.Millisecond)
	}
}

// churn is the mean number of (video, office) route answers that changed
// per swap across the retained snapshots, walking Snapshot.Route.
func churn(snaps []*serve.Snapshot, ids []int) float64 {
	if len(snaps) < 2 {
		return 0
	}
	var changed int
	for i := 1; i < len(snaps); i++ {
		a, b := snaps[i-1], snaps[i]
		for _, id := range ids {
			for j := 0; j < offices; j++ {
				oa, okA := a.Route(id, j)
				ob, okB := b.Route(id, j)
				if oa != ob || okA != okB {
					changed++
				}
			}
		}
	}
	return float64(changed) / float64(len(snaps)-1)
}

// statusGapPct reads last_gap_pct from /status.
func (p *plane) statusGapPct() (float64, error) {
	body, err := p.rc.get("/status")
	if err != nil {
		return 0, err
	}
	var st struct {
		LastGapPct *float64 `json:"last_gap_pct"`
		Certified  bool     `json:"certified"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return 0, err
	}
	if st.LastGapPct == nil || !st.Certified {
		return 0, fmt.Errorf("/status: no gap or uncertified: %s", body)
	}
	return *st.LastGapPct, nil
}
