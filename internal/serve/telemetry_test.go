package serve

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vodplace/internal/epf"
	"vodplace/internal/mip"
	"vodplace/internal/obs"
)

// TestServeLifecycleTrace runs a demand → re-solve → swap cycle with a
// recorder attached and checks the trace tells the whole story: the demand
// batch, the resolve bracket, and the swap with its route churn.
func TestServeLifecycleTrace(t *testing.T) {
	inst := testInstance(t, 30, 6, 17)
	var buf bytes.Buffer
	rec := obs.New(&buf)
	s, err := New(inst, Config{
		Solver:   epf.Options{Seed: 17, MaxPasses: 200, Epsilon: 0.02},
		Recorder: rec,
		Metrics:  rec.Metrics(),
	})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	snap := s.Snapshot()

	var entries []string
	for vi := 0; vi < len(snap.Inst.Demands) && vi < 8; vi++ {
		entries = append(entries, fmt.Sprintf(`{"video":%d,"vho":%d,"add":40}`,
			snap.Inst.Demands[vi].Video, vi%snap.NumVHOs()))
	}
	resp, err := ts.Client().Post(ts.URL+"/demand", "application/json",
		strings.NewReader("["+strings.Join(entries, ",")+"]"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("demand status %d, want 202", resp.StatusCode)
	}

	deadline := time.Now().Add(30 * time.Second)
	for s.Snapshot().Version < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("no swap within deadline; stats %+v", s.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Close() // quiesce the resolver before reading the trace
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}

	events, err := obs.ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var demand, start, swapped int
	var swap *obs.Event
	for i := range events {
		e := &events[i]
		switch e.K {
		case "serve_demand":
			demand++
			if e.Batch != len(entries) || e.Drift <= 0 {
				t.Errorf("serve_demand %+v", e)
			}
		case "serve_resolve":
			if e.Phase == "start" {
				start++
				if e.Version < 2 || e.Trigger != "demand" {
					t.Errorf("serve_resolve start %+v", e)
				}
			} else if e.Verdict == "swapped" {
				swapped++
				if e.SolveMS <= 0 || e.Passes <= 0 || e.Reason != "" {
					t.Errorf("swapped done %+v", e)
				}
				// The solver layers are parts of the solve wall time.
				if e.DescentMS <= 0 || e.RoundMS <= 0 || e.DescentMS+e.RoundMS > e.SolveMS {
					t.Errorf("swapped done: descent %v + round %v ms vs solve %v ms", e.DescentMS, e.RoundMS, e.SolveMS)
				}
			}
		case "serve_swap":
			swap = e
		}
	}
	if demand != 1 || start < 1 || swapped < 1 {
		t.Fatalf("demand=%d start=%d swapped=%d, want 1/>=1/>=1", demand, start, swapped)
	}
	if swap == nil || swap.Version != 2 || swap.RDelta < 0 {
		t.Fatalf("serve_swap %+v", swap)
	}

	// The shared registry carries both the server's counters and the
	// recorder's event-derived families.
	m := rec.Metrics()
	if got := m.Counter("serve_swaps_total").Value(); got < 1 {
		t.Errorf("serve_swaps_total %d, want >= 1", got)
	}
	if got := m.Counter("serve.resolves_swapped").Value(); got < 1 {
		t.Errorf("serve.resolves_swapped %d, want >= 1", got)
	}
}

// TestMetricsEndpoint scrapes /metrics and checks the exposition parses and
// carries the request instruments and the sampled gauges.
func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t, 30, 6, 18)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	snap := s.Snapshot()

	// Generate traffic so the route instrument has samples: hits and a 404.
	for j := 0; j < snap.NumVHOs(); j++ {
		resp, err := ts.Client().Get(fmt.Sprintf("%s/route?video=%d&vho=%d",
			ts.URL, snap.Inst.Demands[0].Video, j))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := ts.Client().Get(ts.URL + "/route?video=999999&vho=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	samples, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, sm := range samples {
		if sm.Labels == nil {
			byName[sm.Name] = sm.Value
		}
	}
	if byName["serve_route_requests"] != float64(snap.NumVHOs())+1 {
		t.Errorf("serve_route_requests %v, want %d", byName["serve_route_requests"], snap.NumVHOs()+1)
	}
	if _, ok := byName["serve_snapshot_age_seconds"]; !ok {
		t.Error("serve_snapshot_age_seconds missing from exposition")
	}
	var ok2xx, ok4xx bool
	for _, sm := range samples {
		if sm.Name == obs.PromReqTotalName && sm.Labels["endpoint"] == "route" {
			switch sm.Labels["code"] {
			case "2xx":
				ok2xx = sm.Value == float64(snap.NumVHOs())
			case "4xx":
				ok4xx = sm.Value == 1
			}
		}
	}
	if !ok2xx || !ok4xx {
		t.Errorf("route status classes wrong (2xx ok=%v, 4xx ok=%v)", ok2xx, ok4xx)
	}
	h := obs.ExtractPromHist(samples, obs.PromReqDurName, map[string]string{"endpoint": "route"})
	if h == nil || h.Count != float64(snap.NumVHOs())+1 {
		t.Fatalf("route latency histogram %+v", h)
	}
	if q := h.Quantile(0.99); q <= 0 || q > 10 {
		t.Errorf("p99 %v seconds implausible", q)
	}
}

// TestStatusTelemetryFields checks the /status additions: build timestamp,
// age, and the empty last-reject on a healthy server.
func TestStatusTelemetryFields(t *testing.T) {
	s := testServer(t, 30, 6, 19)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var st statusJSON
	if code := getJSON(t, ts, "/status", &st); code != 200 {
		t.Fatalf("status code %d", code)
	}
	if st.BuiltUnix <= 0 {
		t.Errorf("built_unix %d, want > 0", st.BuiltUnix)
	}
	if st.AgeSeconds < 0 || st.AgeSeconds > 3600 {
		t.Errorf("age_seconds %v implausible", st.AgeSeconds)
	}
	if st.LastReject != "" {
		t.Errorf("last_reject %q, want empty", st.LastReject)
	}
	if got := s.Stats().LastReject; got != "" {
		t.Errorf("Stats().LastReject %q, want empty", got)
	}
}

// TestRouteDelta pins the swap-churn computation against a from-scratch
// count over dense cheapest-copy tables, and the re-derived row count: the
// videos whose open set moved on a shared instance, every video across
// instances.
func TestRouteDelta(t *testing.T) {
	const videos, vhos = 60, 6
	inst := syntheticInstance(t, videos, vhos, 1, 20)
	open := make([][]int32, videos)
	for vi := range open {
		open[vi] = []int32{int32(vi % vhos)}
	}
	build := func(inst *mip.Instance, version uint64) *Snapshot {
		snap, err := buildSnapshot(inst, shareSol(inst, open), version, true)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	snap := build(inst, 1)
	if d, r := routeDelta(snap, build(inst, 2)); d != 0 || r != 0 {
		t.Errorf("identical snapshots: delta %d, re-derived %d; want 0, 0", d, r)
	}
	if d, r := routeDelta(nil, snap); d != videos*vhos || r != videos {
		t.Errorf("nil old: delta %d, re-derived %d; want %d, %d", d, r, videos*vhos, videos)
	}

	// Move two videos: one gains a copy, one moves its only copy.
	before := shareSol(inst, open)
	open[4] = []int32{4, 1}
	open[7] = []int32{2}
	after := shareSol(inst, open)
	var want int64
	for _, vi := range []int{4, 7} {
		for j := 0; j < vhos; j++ {
			if cheapestCopy(inst, before, vi, j) != cheapestCopy(inst, after, vi, j) {
				want++
			}
		}
	}
	if want == 0 {
		t.Fatal("test moves change no route; pick other offices")
	}
	moved := build(inst, 3)
	if d, r := routeDelta(snap, moved); d != want || r != 2 {
		t.Errorf("two moved videos: delta %d, re-derived %d; want %d, 2", d, r, want)
	}

	// A different instance object (a full rebuild) re-derives every row.
	other := syntheticInstance(t, videos, vhos, 1, 20)
	if d, r := routeDelta(moved, build(other, 4)); d != 0 || r != videos {
		t.Errorf("rebuilt instance: delta %d, re-derived %d; want 0, %d", d, r, videos)
	}
}

// TestDemandDrift pins the drift accounting: accumulation on apply
// (including the zero clamp) and the post-swap settlement.
func TestDemandDrift(t *testing.T) {
	inst := testInstance(t, 20, 5, 21)
	st := stateFromInstance(inst)
	id := inst.Demands[0].Video
	st.apply([]DemandUpdate{{Video: id, VHO: 0, Add: 10}})
	if st.drift != 10 {
		t.Fatalf("drift %v, want 10", st.drift)
	}
	// A negative add that clamps at zero only counts the mass removed.
	before := st.rows[st.byID[id]].agg[1]
	st.apply([]DemandUpdate{{Video: id, VHO: 1, Add: -1e9}})
	if want := 10 + before; st.drift != want {
		t.Errorf("drift %v, want %v (clamped removal counts %v)", st.drift, want, before)
	}
}
