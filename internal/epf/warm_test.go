package epf

import (
	"math"
	"testing"

	"vodplace/internal/mip"
)

// warmBase builds the reference instance for the warm-start tests and a cold
// solve of it whose Result.Warm seeds the warm solves under test.
func warmBase(t *testing.T) (*mip.Instance, *Result) {
	t.Helper()
	inst := randomInstance(t, 17, 10, 80, 2.0, 200)
	res, err := SolveInteger(inst, Options{Seed: 5, MaxPasses: 250})
	if err != nil {
		t.Fatal(err)
	}
	if res.Warm == nil {
		t.Fatal("cold solve did not export warm state")
	}
	return inst, res
}

func TestWarmExport(t *testing.T) {
	inst, res := warmBase(t)
	w := res.Warm
	if len(w.RowDuals) != len(res.RowDuals) {
		t.Fatalf("warm duals: %d rows, result has %d", len(w.RowDuals), len(res.RowDuals))
	}
	if w.Delta <= 0 {
		t.Errorf("exported Delta = %g, want > 0", w.Delta)
	}
	for r := range w.RowDuals {
		if w.RowDuals[r] != res.RowDuals[r] {
			t.Fatalf("warm dual %d = %g, result certified with %g", r, w.RowDuals[r], res.RowDuals[r])
		}
	}
	if len(w.Videos) != len(inst.Demands) {
		t.Fatalf("warm state covers %d videos, instance has %d", len(w.Videos), len(inst.Demands))
	}
	for vi := range inst.Demands {
		wv, ok := w.Videos[inst.Demands[vi].Video]
		if !ok {
			t.Fatalf("video %d missing from warm state", inst.Demands[vi].Video)
		}
		if len(wv.Open) == 0 {
			t.Fatalf("video %d exported an empty open set", inst.Demands[vi].Video)
		}
		for _, o := range wv.Open {
			if o < 0 || int(o) >= inst.NumVHOs() {
				t.Fatalf("video %d exported office %d out of range", inst.Demands[vi].Video, o)
			}
		}
	}
}

// TestWarmSolveValidAndCertified is the core tentpole invariant: a warm
// re-solve must stand on its own — audited feasibility claims and a lower
// bound its own duals certify on its own instance — and must land within the
// certified duality gap of the cold solve.
func TestWarmSolveValidAndCertified(t *testing.T) {
	inst, cold := warmBase(t)
	warm, err := SolveInteger(inst, Options{Seed: 5, MaxPasses: 250, Warm: cold.Warm})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.WarmVideos != len(inst.Demands) {
		t.Errorf("warm-seeded %d of %d videos, want all (same catalog)",
			warm.Stats.WarmVideos, len(inst.Demands))
	}
	if v := warm.Sol.Check(); v.Unserved > mip.FeasTol || v.XExceedsY > mip.FeasTol {
		t.Errorf("warm solution violates block constraints: %+v", v)
	}
	// The warm bound must be certified by the warm result's own duals.
	if warm.LowerBound > warm.Objective+1e-9 {
		t.Errorf("warm lb %g exceeds its own objective %g", warm.LowerBound, warm.Objective)
	}
	// Parity: warm and cold objectives bracket the same optimum, so each must
	// lie within the other's certified gap.
	if warm.Objective < cold.LowerBound-1e-9 {
		t.Errorf("warm objective %g below cold certified bound %g", warm.Objective, cold.LowerBound)
	}
	if cold.Objective < warm.LowerBound-1e-9 {
		t.Errorf("cold objective %g below warm certified bound %g", cold.Objective, warm.LowerBound)
	}
	// The whole point: re-solving the same instance from its own final state
	// must not take more passes than the cold solve.
	if warm.Passes > cold.Passes {
		t.Errorf("warm re-solve took %d passes, cold took %d", warm.Passes, cold.Passes)
	}
}

// TestWarmWorkerInvariance: the determinism contract survives warm seeding —
// identical bytes at any worker count.
func TestWarmWorkerInvariance(t *testing.T) {
	inst, cold := warmBase(t)
	var ref *Result
	for _, workers := range []int{1, 3, 7} {
		res, err := SolveInteger(inst, Options{
			Seed: 5, MaxPasses: 250, Workers: workers, Warm: cold.Warm,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Objective != ref.Objective || res.LowerBound != ref.LowerBound || res.Passes != ref.Passes {
			t.Errorf("workers=%d: (obj %v lb %v passes %d) != workers=1 (obj %v lb %v passes %d)",
				workers, res.Objective, res.LowerBound, res.Passes,
				ref.Objective, ref.LowerBound, ref.Passes)
		}
		for vi := range ref.Sol.Videos {
			a, b := ref.Sol.Videos[vi].Open, res.Sol.Videos[vi].Open
			if len(a) != len(b) {
				t.Fatalf("workers=%d: video %d open-set size differs", workers, vi)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("workers=%d: video %d open entry %d differs", workers, vi, i)
				}
			}
		}
	}
}

// TestWarmDualMismatchFallsBack: a warm state whose dual vector does not
// match the new instance's row count (topology or slice-count change) must
// not poison the solve — duals are dropped, per-video seeds still apply.
func TestWarmDualMismatchFallsBack(t *testing.T) {
	inst, cold := warmBase(t)
	w := *cold.Warm
	w.RowDuals = w.RowDuals[:len(w.RowDuals)-1]
	res, err := SolveInteger(inst, Options{Seed: 5, MaxPasses: 250, Warm: &w})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.WarmVideos == 0 {
		t.Error("per-video seeding should survive a dual-dimension mismatch")
	}
	if res.LowerBound > res.Objective+1e-9 {
		t.Errorf("lb %g exceeds objective %g after dual fallback", res.LowerBound, res.Objective)
	}

	// NaN / negative duals are likewise rejected rather than trusted.
	w2 := *cold.Warm
	w2.RowDuals = append([]float64(nil), cold.Warm.RowDuals...)
	w2.RowDuals[0] = math.NaN()
	if _, err := SolveInteger(inst, Options{Seed: 5, MaxPasses: 250, Warm: &w2}); err != nil {
		t.Fatalf("NaN dual in warm state must fall back, not fail: %v", err)
	}
}

// TestWarmCatalogChurn: videos absent from the warm state (new releases) and
// warm entries with out-of-range offices (topology shrank) fall back to the
// cold init per video; everything else still seeds.
func TestWarmCatalogChurn(t *testing.T) {
	inst, cold := warmBase(t)

	w := &WarmState{
		RowDuals: cold.Warm.RowDuals,
		Delta:    cold.Warm.Delta,
		Videos:   make(map[int]WarmVideo, len(cold.Warm.Videos)),
	}
	dropped := 0
	for id, wv := range cold.Warm.Videos {
		switch {
		case id%5 == 0: // churned out of the catalog
			dropped++
		case id%7 == 1: // stale entry pointing at a removed office
			w.Videos[id] = WarmVideo{Open: []int32{int32(inst.NumVHOs())}}
			dropped++
		default:
			w.Videos[id] = wv
		}
	}
	if dropped == 0 {
		t.Fatal("test instance produced no churned videos; widen the filter")
	}

	res, err := SolveInteger(inst, Options{Seed: 5, MaxPasses: 250, Warm: w})
	if err != nil {
		t.Fatal(err)
	}
	want := len(inst.Demands) - dropped
	if res.Stats.WarmVideos != want {
		t.Errorf("WarmVideos = %d, want %d (churned entries must fall back cold)",
			res.Stats.WarmVideos, want)
	}
	if v := res.Sol.Check(); v.Unserved > mip.FeasTol || v.XExceedsY > mip.FeasTol {
		t.Errorf("churned warm solve violates block constraints: %+v", v)
	}
	if res.Objective < cold.LowerBound-1e-9 {
		t.Errorf("churned warm objective %g below certified bound %g", res.Objective, cold.LowerBound)
	}
}

// TestColdPathUnchangedByWarmPlumbing: Options without Warm must produce the
// exact bytes the pre-warm solver produced — the export of warm state must
// be numerically inert.
func TestColdPathUnchangedByWarmPlumbing(t *testing.T) {
	inst := randomInstance(t, 23, 8, 60, 2.0, 200)
	a, err := SolveInteger(inst, Options{Seed: 9, MaxPasses: 200})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveInteger(inst, Options{Seed: 9, MaxPasses: 200})
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != b.Objective || a.LowerBound != b.LowerBound || a.Passes != b.Passes {
		t.Errorf("cold solve not reproducible: (%v,%v,%d) vs (%v,%v,%d)",
			a.Objective, a.LowerBound, a.Passes, b.Objective, b.LowerBound, b.Passes)
	}
	if a.Stats.WarmVideos != 0 {
		t.Errorf("cold solve reports WarmVideos = %d", a.Stats.WarmVideos)
	}
}
