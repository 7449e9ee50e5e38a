package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vodplace/internal/obs"
)

// BenchmarkServeRouteLookup is the data-plane unit the acceptance rps gate
// rests on: parse + table lookup + JSON encode into a reused buffer.
func BenchmarkServeRouteLookup(b *testing.B) {
	s := testServer(b, 200, 10, 41)
	snap := s.Snapshot()
	var queries []string
	for vi := range snap.Inst.Demands {
		queries = append(queries, fmt.Sprintf("video=%d&vho=%d",
			snap.Inst.Demands[vi].Video, vi%snap.NumVHOs()))
	}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, j, ok := parseRouteQuery(queries[i%len(queries)])
		if !ok {
			b.Fatal("parse failed")
		}
		buf, _ = snap.AppendRoute(buf[:0], v, j)
	}
	_ = buf
}

// BenchmarkServeRouteLookupInstrumented is BenchmarkServeRouteLookup plus
// the per-request telemetry handleRoute performs (clock read + ReqStat
// record). bench-json diffs the two to report the instrumentation cost of a
// route lookup end to end.
func BenchmarkServeRouteLookupInstrumented(b *testing.B) {
	s := testServer(b, 200, 10, 41)
	snap := s.Snapshot()
	var queries []string
	for vi := range snap.Inst.Demands {
		queries = append(queries, fmt.Sprintf("video=%d&vho=%d",
			snap.Inst.Demands[vi].Video, vi%snap.NumVHOs()))
	}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		v, j, ok := parseRouteQuery(queries[i%len(queries)])
		if !ok {
			b.Fatal("parse failed")
		}
		var status int
		buf, status = snap.AppendRoute(buf[:0], v, j)
		s.reqRoute.Record(status, time.Since(t0))
	}
	_ = buf
}

// BenchmarkServeRecord isolates the recorder itself — one ReqStat.Record
// call with a synthetic duration, no clock reads — which is the number the
// <10 ns/op acceptance bound applies to.
func BenchmarkServeRecord(b *testing.B) {
	e := obs.NewReqStat("route")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Record(200, time.Duration(i&0xfffff))
	}
	if e.Requests() != int64(b.N) {
		b.Fatal("lost samples")
	}
}

// BenchmarkServeSnapshotBuild measures the control-plane cost of building
// a snapshot's open-set lists after a re-solve.
func BenchmarkServeSnapshotBuild(b *testing.B) {
	s, sol := solvedServer(b, 200, 10, 42)
	inst := s.Snapshot().Inst
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := buildSnapshot(inst, sol, uint64(i+2), true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeRouteHTTP measures a full sequential request/response cycle
// through net/http on a loopback listener — the per-connection ceiling a
// single vodload sender sees.
func BenchmarkServeRouteHTTP(b *testing.B) {
	s := testServer(b, 100, 8, 43)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	snap := s.Snapshot()
	var urls []string
	for vi := range snap.Inst.Demands {
		urls = append(urls, fmt.Sprintf("%s/route?video=%d&vho=%d",
			ts.URL, snap.Inst.Demands[vi].Video, vi%snap.NumVHOs()))
	}
	client := ts.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(urls[i%len(urls)])
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}
