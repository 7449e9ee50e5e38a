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
