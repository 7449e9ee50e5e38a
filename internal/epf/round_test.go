package epf

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// The polish step criterion is a pure function of the per-row totals: the
// same block rows accumulated in any order yield bit-identical merit and
// potential on both sides of the step.
func TestStepCriterionOrderInvariant(t *testing.T) {
	inst := randomInstance(t, 11, 10, 90, 2.0, 150)
	s, err := newSolver(inst, Options{Seed: 3, Workers: 1, MaxPasses: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	// Integer-phase prices and activities, as the polish sees them.
	s.round(s.run(context.Background()))
	s.computeDuals(s.q)

	type entry struct {
		r    int
		side uint8
		v    float64
	}
	rng := rand.New(rand.NewSource(7))
	var entries []entry
	for _, side := range []uint8{stepCur, stepNew} {
		for _, r := range rng.Perm(s.rows)[:s.rows/2] {
			// Loads up to half a row's capacity, spread over several
			// magnitudes so a change of summation order shows in the
			// low bits.
			v := s.b[r] * rng.Float64() * math.Pow(10, -float64(rng.Intn(4))) / 2
			entries = append(entries, entry{r, side, v})
		}
	}
	eval := func() (scores [4]float64) {
		for x, useMerit := range []bool{true, false} {
			s.step.reset(s.rows)
			for _, e := range entries {
				s.step.add(e.r, e.side, e.v)
			}
			scores[2*x], scores[2*x+1] = s.stepScores(useMerit, 2.5, 3.5)
		}
		return scores
	}
	want := eval()
	for trial := 0; trial < 50; trial++ {
		rng.Shuffle(len(entries), func(a, b int) { entries[a], entries[b] = entries[b], entries[a] })
		if got := eval(); got != want {
			t.Fatalf("shuffle %d: merit/potential %v, want %v", trial, got, want)
		}
	}
}

// The allocation contract extends to the integer phase: once the rounding
// buffers and per-block rows have grown to steady state, a rounding or
// polish visit — facility-location solve, step criterion, commit —
// allocates nothing.
func TestPolishVisitZeroAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	inst := randomInstance(t, 11, 10, 90, 2.0, 150)
	s, err := newSolver(inst, Options{Seed: 3, Workers: 1, IncrementalPricing: true, MaxPasses: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	s.round(s.run(context.Background()))
	dcCap, _ := s.maxCouplingViol()
	dcCap = max(dcCap, 4*s.opts.Epsilon)
	visits := []struct{ polish, useMerit bool }{{true, true}, {true, false}, {false, false}}
	// Warm-up: block-row capacities grow on the first sweeps.
	for i := 0; i < 3; i++ {
		for _, v := range visits {
			s.computeDuals(s.q)
			s.computePathDuals(s.q)
			for vi := range s.sol {
				s.roundVisit(vi, v.polish, v.useMerit, dcCap)
			}
		}
	}
	for _, v := range visits {
		vi := 0
		allocs := testing.AllocsPerRun(len(s.sol), func() {
			s.roundVisit(vi, v.polish, v.useMerit, dcCap)
			vi = (vi + 1) % len(s.sol)
		})
		if allocs != 0 {
			t.Errorf("visit %+v allocates %g times, want 0", v, allocs)
		}
	}
}

// A stalled polish start still draws the shuffles of the passes it skips,
// so after round the solver's random stream stands exactly where it would
// if every pass of both starts had run — the threshold start and anything
// after it see the same stream as before the stall rule existed. (The
// older changed == 0 exit does not draw them; on this instance it never
// fires.)
func TestPolishStallKeepsRandomStream(t *testing.T) {
	inst := randomInstance(t, 11, 10, 90, 2.0, 150)
	opts := Options{Seed: 3, Workers: 1, IncrementalPricing: true, MaxPasses: 6}
	solved := func() *solver {
		s, err := newSolver(inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.close)
		return s
	}
	got := solved()
	res := got.run(context.Background())
	got.round(res)
	if got.stats.PolishPasses >= 2*polishPasses {
		t.Fatalf("%d polish passes: no start stalled, the test instance no longer exercises the rule", got.stats.PolishPasses)
	}

	want := solved()
	want.run(context.Background())
	order := make([]int, len(want.sol))
	for range 2 * polishPasses {
		want.rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	}
	for i := range 4 {
		if g, w := got.rng.Int63(), want.rng.Int63(); g != w {
			t.Fatalf("draw %d after round: %d, want %d (%d polish passes ran)", i, g, w, got.stats.PolishPasses)
		}
	}
}

// The integer phase's working set is the whole catalog on a cold solve,
// and every polish pass visits all of it. A warm solve seeded from its own
// result leaves most blocks on their warm seed, so its working set is
// smaller, and every video outside it publishes exactly its warm open set.
func TestRoundWorkSet(t *testing.T) {
	inst := randomInstance(t, 11, 10, 90, 2.0, 150)
	opts := Options{Seed: 3, Workers: 1, IncrementalPricing: true, MaxPasses: 60}
	cold, err := SolveInteger(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	n := len(inst.Demands)
	if st := cold.Stats; st.RoundWorkSet != n || st.PolishVisits != int64(st.PolishPasses*n) || st.PolishPasses == 0 {
		t.Errorf("cold: working set %d of %d videos, %d polish visits over %d passes; want the catalog every pass",
			st.RoundWorkSet, n, st.PolishVisits, st.PolishPasses)
	}

	opts.Warm = cold.Warm
	s, err := newSolver(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	res := s.run(context.Background())
	work := s.roundWorkSet()
	s.round(res)
	if len(work) >= n || res.Stats.RoundWorkSet != len(work) {
		t.Fatalf("warm: working set %d (Stats %d) of %d videos, want a proper subset", len(work), res.Stats.RoundWorkSet, n)
	}
	if st := res.Stats; st.PolishVisits != int64(st.PolishPasses*len(work)) {
		t.Errorf("warm: %d polish visits over %d passes of %d videos", st.PolishVisits, st.PolishPasses, len(work))
	}
	inWork := make([]bool, n)
	for _, vi := range work {
		inWork[vi] = true
	}
	for vi := range inst.Demands {
		if inWork[vi] {
			continue
		}
		want := cold.Warm.Videos[inst.Demands[vi].Video].Open
		got := res.Sol.Videos[vi].Open
		same := len(got) == len(want)
		for x := 0; same && x < len(got); x++ {
			same = got[x].I == want[x] && got[x].V == 1
		}
		if !same {
			t.Errorf("video %d outside the working set: open %v, want its warm set %v", vi, got, want)
		}
	}
}
