package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vodplace/internal/epf"
	"vodplace/internal/mip"
)

// TestSnapshotSwapRace hammers /route from concurrent readers while the
// control plane swaps snapshots underneath them. Run under -race it pins the
// no-torn-reads invariant: every response a reader sees must be internally
// consistent with the snapshot whose version it carries, and versions must
// be monotone per reader. The resolver is driven directly (resolveOnce) so
// the test controls exactly how many swaps happen.
func TestSnapshotSwapRace(t *testing.T) {
	s := testServer(t, 30, 6, 21)
	mux := s.Handler()
	first := s.Snapshot()

	// Retain every version ever served so readers can be checked afterwards.
	var retainMu sync.Mutex
	retained := map[uint64]*Snapshot{first.Version: first}

	// Fixed request universe: all pairs exist in every snapshot because the
	// demand state only ever gains mass in this test.
	type pair struct{ video, vho int }
	var pairs []pair
	for vi := range first.Inst.Demands {
		pairs = append(pairs, pair{first.Inst.Demands[vi].Video, vi % first.NumVHOs()})
	}

	var stop atomic.Bool
	type sample struct {
		video, vho int
		serve      int // -1 for a 404
		version    uint64
	}
	const readers = 4
	samples := make([][]sample, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastVersion uint64
			for k := 0; !stop.Load(); k++ {
				p := pairs[(k*7+r)%len(pairs)]
				req := httptest.NewRequest(http.MethodGet,
					fmt.Sprintf("/route?video=%d&vho=%d", p.video, p.vho), nil)
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, req)
				var rr routeResp
				if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
					t.Errorf("reader %d: bad body %q: %v", r, rec.Body.String(), err)
					return
				}
				if rr.Version < lastVersion {
					t.Errorf("reader %d: version went backwards %d -> %d", r, lastVersion, rr.Version)
					return
				}
				lastVersion = rr.Version
				sv := rr.Serve
				if rec.Code != http.StatusOK {
					sv = -1
				}
				samples[r] = append(samples[r], sample{p.video, p.vho, sv, rr.Version})
			}
		}(r)
	}

	// Control plane: three demand perturbations, each followed by a direct
	// audited re-solve. Every swap must succeed for the test to mean much.
	const swaps = 3
	for w := 0; w < swaps; w++ {
		s.mu.Lock()
		for vi := 0; vi < len(first.Inst.Demands); vi += 3 {
			s.state.apply([]DemandUpdate{{
				Video: first.Inst.Demands[vi].Video,
				VHO:   (vi + w) % first.NumVHOs(),
				Add:   25,
			}})
		}
		s.dirty = true
		s.mu.Unlock()
		snap, err := s.resolveOnce(context.Background())
		if err != nil {
			t.Fatalf("swap %d: %v", w, err)
		}
		if snap == nil {
			t.Fatalf("swap %d: re-solve did not swap (stats %+v)", w, s.Stats())
		}
		retainMu.Lock()
		retained[snap.Version] = snap
		retainMu.Unlock()
	}
	time.Sleep(20 * time.Millisecond) // let readers observe the final version
	stop.Store(true)
	wg.Wait()

	if got := s.Stats().ResolvesSwapped; got != swaps {
		t.Fatalf("resolves_swapped = %d, want %d", got, swaps)
	}

	// Validate every sample against the snapshot its version names.
	total, crossVersion := 0, 0
	seen := map[uint64]bool{}
	for r := range samples {
		for _, sm := range samples[r] {
			snap, ok := retained[sm.version]
			if !ok {
				t.Fatalf("reader %d saw unknown version %d", r, sm.version)
			}
			seen[sm.version] = true
			want, wantOK := snap.Route(sm.video, sm.vho)
			if !wantOK {
				want = -1
			}
			if sm.serve != want {
				t.Fatalf("torn read: video %d vho %d at version %d served by %d, snapshot says %d",
					sm.video, sm.vho, sm.version, sm.serve, want)
			}
			if sm.version != first.Version {
				crossVersion++
			}
			total++
		}
	}
	if total == 0 {
		t.Fatal("readers recorded no samples")
	}
	if crossVersion == 0 {
		t.Log("warning: no reads landed on a post-swap snapshot (slow machine?)")
	}
	t.Logf("%d reads across %d versions, %d on post-swap snapshots", total, len(seen), crossVersion)
}

// TestCloseDiscardsInflightResolve pins graceful shutdown: Close() while a
// background re-solve is mid-pass cancels it, the partial solve is discarded
// (version unchanged, cancelled counter bumped), and the data plane keeps
// answering from the old snapshot.
func TestCloseDiscardsInflightResolve(t *testing.T) {
	var armed atomic.Bool
	var entered sync.Once
	passEntered := make(chan struct{})
	release := make(chan struct{})

	inst := testInstance(t, 30, 6, 31)
	cfg := Config{Solver: epf.Options{Seed: 31, MaxPasses: 200, Epsilon: 0.02}}
	cfg.Solver.OnPass = func(epf.PassInfo) {
		if !armed.Load() {
			return
		}
		entered.Do(func() { close(passEntered) })
		<-release // closed exactly once cancellation is in flight
	}
	var logMu sync.Mutex
	var logs []string
	cfg.Logf = func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	s, err := New(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Kick a background re-solve and wait until it is provably mid-pass.
	armed.Store(true)
	s.mu.Lock()
	s.state.apply([]DemandUpdate{{Video: inst.Demands[0].Video, VHO: 0, Add: 50}})
	s.dirty = true
	s.mu.Unlock()
	s.kickResolve()
	select {
	case <-passEntered:
	case <-time.After(30 * time.Second):
		t.Fatal("re-solve never reached a pass")
	}

	// Cancel first (deterministically, before the solver can finish), then
	// unblock the pass hook and wait for the resolver to drain.
	s.cancel()
	close(release)
	s.Close()

	if got := s.Snapshot().Version; got != 1 {
		t.Errorf("version after shutdown = %d, want 1 (partial solve must be discarded)", got)
	}
	st := s.Stats()
	if st.Cancelled != 1 {
		t.Errorf("cancelled counter = %d, want 1", st.Cancelled)
	}
	if st.ResolvesSwapped != 0 {
		t.Errorf("resolves_swapped = %d, want 0", st.ResolvesSwapped)
	}
	logMu.Lock()
	found := false
	for _, l := range logs {
		if strings.Contains(l, "resolve discarded (shutdown)") {
			found = true
		}
	}
	logMu.Unlock()
	if !found {
		t.Errorf("no 'resolve discarded (shutdown)' log line; got %q", logs)
	}

	// In-flight/late requests still answer from the old snapshot.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		fmt.Sprintf("/route?video=%d&vho=0", inst.Demands[0].Video), nil))
	if rec.Code != http.StatusOK {
		t.Errorf("post-shutdown route: status %d, want 200", rec.Code)
	}

	// Close is idempotent.
	s.Close()
}

// TestResolvePanicContained pins panic containment in the resolver: a solve
// that panics ends its attempt with verdict failed and the panic text,
// bumps the panicked counter on /status and /metrics, and leaves the
// previous snapshot serving; the next demand batch still swaps.
func TestResolvePanicContained(t *testing.T) {
	orig := solveInteger
	var calls atomic.Int32
	solveInteger = func(ctx context.Context, inst *mip.Instance, opts epf.Options) (*epf.Result, error) {
		if calls.Add(1) == 1 {
			panic("injected solver fault")
		}
		return orig(ctx, inst, opts)
	}
	t.Cleanup(func() { solveInteger = orig })
	s := testServer(t, 30, 6, 41) // its Close cleanup runs before the restore
	mux := s.Handler()
	id := s.Snapshot().Inst.Demands[0].Video
	post := func() {
		rec := httptest.NewRecorder()
		body := fmt.Sprintf(`[{"video":%d,"vho":1,"add":40}]`, id)
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/demand", strings.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("POST /demand: %d %s", rec.Code, rec.Body)
		}
	}
	waitFor := func(what string, cond func(Stats) bool) Stats {
		deadline := time.Now().Add(30 * time.Second)
		for {
			st := s.Stats()
			if cond(st) {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; stats %+v", what, st)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	post()
	st := waitFor("the panicking attempt", func(st Stats) bool { return st.Failed > 0 })
	if st.Panicked != 1 || st.Failed != 1 || st.Version != 1 {
		t.Fatalf("after panic: panicked %d failed %d version %d, want 1/1/1", st.Panicked, st.Failed, st.Version)
	}
	if !strings.Contains(st.LastReject, "panic: injected solver fault") {
		t.Errorf("last reject %q does not carry the panic text", st.LastReject)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/route?video=%d&vho=0", id), nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"version":1}`) {
		t.Errorf("route after panic: %d %s, want 200 from v1", rec.Code, rec.Body)
	}
	var status statusJSON
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/status", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil || status.Resolves.Panicked != 1 {
		t.Errorf("/status resolves.panicked = %d (%v), want 1", status.Resolves.Panicked, err)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "serve_resolves_panicked 1\n") {
		t.Errorf("/metrics lacks serve_resolves_panicked 1:\n%s", rec.Body)
	}

	post()
	st = waitFor("the next swap", func(st Stats) bool { return st.Version >= 2 || st.Failed > 1 })
	if st.Version != 2 || st.ResolvesSwapped != 1 || st.Failed != 1 {
		t.Fatalf("after the next batch: version %d swapped %d failed %d, want 2/1/1", st.Version, st.ResolvesSwapped, st.Failed)
	}
}
