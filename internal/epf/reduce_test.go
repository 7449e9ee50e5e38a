package epf

import (
	"bytes"
	"testing"

	"vodplace/internal/obs"
)

// forceMultiLeaf shrinks the reduction-tree leaf width so small test
// instances exercise the multi-leaf machinery, restoring the default on
// cleanup.
func forceMultiLeaf(t *testing.T, leaf int) {
	t.Helper()
	old := reduceLeafBlocks
	reduceLeafBlocks = leaf
	t.Cleanup(func() { reduceLeafBlocks = old })
}

// The multi-leaf reduction contract: leaf boundaries depend only on the
// catalog size, so at a fixed leaf width every worker×shard combination
// must reproduce the same solve bit for bit — objective, bound, duals,
// solution, and trajectory.
func TestMultiLeafReductionInvariance(t *testing.T) {
	forceMultiLeaf(t, 16) // 60 videos -> 4 leaves
	base := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100),
		Options{Seed: 5, MaxPasses: 30, Workers: 1})
	if len(base.RowDuals) == 0 {
		t.Fatal("baseline exported no duals")
	}
	for _, workers := range []int{1, 4} {
		for _, shards := range []int{1, 3, 7} {
			res := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100),
				Options{Seed: 5, MaxPasses: 30, Workers: workers, Shards: shards})
			if res.Objective != base.Objective || res.LowerBound != base.LowerBound {
				t.Errorf("workers=%d shards=%d: (%.17g, %.17g) vs baseline (%.17g, %.17g)",
					workers, shards, res.Objective, res.LowerBound, base.Objective, base.LowerBound)
			}
			if !identicalDuals(base.RowDuals, res.RowDuals) {
				t.Errorf("workers=%d shards=%d: row duals differ from baseline", workers, shards)
			}
			if !identicalSolutions(base.Sol, res.Sol) {
				t.Errorf("workers=%d shards=%d: solutions differ from baseline", workers, shards)
			}
			if res.Passes != base.Passes {
				t.Errorf("workers=%d shards=%d: %d passes vs baseline %d", workers, shards, res.Passes, base.Passes)
			}
		}
	}
}

// A single-leaf catalog must reduce by exactly the historical flat sum: the
// multi-leaf code path stays inert and the solve is bit-identical to one
// with the default leaf width. (A different leaf width may legitimately
// change low-order bits — this pins that the default does not.)
func TestSingleLeafMatchesFlatReduction(t *testing.T) {
	base := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100),
		Options{Seed: 5, MaxPasses: 30, Workers: 4})
	forceMultiLeaf(t, 60) // 60 videos in one leaf: still the flat path
	res := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100),
		Options{Seed: 5, MaxPasses: 30, Workers: 4})
	if res.Objective != base.Objective || res.LowerBound != base.LowerBound {
		t.Errorf("single-leaf solve diverged from flat reduction: (%.17g, %.17g) vs (%.17g, %.17g)",
			res.Objective, res.LowerBound, base.Objective, base.LowerBound)
	}
	if !identicalSolutions(base.Sol, res.Sol) {
		t.Error("single-leaf solve solution differs from flat reduction")
	}
}

// The multi-leaf tree reorders float additions, so it need not match the
// flat sum bit for bit — but it must stay a faithful solve: certified
// bound, ε-feasibility, and an objective within solver tolerance of the
// flat-reduction run.
func TestMultiLeafReductionSanity(t *testing.T) {
	flat := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100),
		Options{Seed: 5, MaxPasses: 40, Workers: 1})
	forceMultiLeaf(t, 16)
	res := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100),
		Options{Seed: 5, MaxPasses: 40, Workers: 4})
	if res.LowerBound > res.Objective*(1+1e-9) {
		t.Errorf("LB %g above objective %g", res.LowerBound, res.Objective)
	}
	if v := res.Violation; v.Unserved > 1e-6 || v.XExceedsY > 1e-6 {
		t.Errorf("block constraints violated: %+v", v)
	}
	if rel := (res.Objective - flat.Objective) / flat.Objective; rel > 0.05 || rel < -0.05 {
		t.Errorf("multi-leaf objective %g drifted %.2f%% from flat %g",
			res.Objective, 100*rel, flat.Objective)
	}
}

// The fast mode (IncrementalPricing, the default at the CLI surfaces)
// carries the same invariance contract as the legacy mode: bit-identical
// integer output at any worker and shard count.
func TestFastModeWorkerShardInvariance(t *testing.T) {
	opts := func(workers, shards int) Options {
		return Options{Seed: 5, MaxPasses: 30, Workers: workers, Shards: shards,
			IncrementalPricing: true}
	}
	base, err := SolveInteger(randomInstance(t, 9, 8, 60, 2.0, 100), opts(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.RowDuals) == 0 {
		t.Fatal("baseline exported no duals")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, shards := range []int{0, 1, 3, 7} {
			if workers == 1 && shards == 0 {
				continue
			}
			res, err := SolveInteger(randomInstance(t, 9, 8, 60, 2.0, 100), opts(workers, shards))
			if err != nil {
				t.Fatal(err)
			}
			if res.Objective != base.Objective || res.LowerBound != base.LowerBound {
				t.Errorf("workers=%d shards=%d: (%.17g, %.17g) vs baseline (%.17g, %.17g)",
					workers, shards, res.Objective, res.LowerBound, base.Objective, base.LowerBound)
			}
			if !identicalDuals(base.RowDuals, res.RowDuals) {
				t.Errorf("workers=%d shards=%d: row duals differ from baseline", workers, shards)
			}
			if !identicalSolutions(base.Sol, res.Sol) {
				t.Errorf("workers=%d shards=%d: rounded solutions differ from baseline", workers, shards)
			}
		}
	}
}

// Cross-period warm starts (which also warm-start the forced rounding)
// keep the fast mode worker- and shard-invariant, and the retired
// ParallelRound flag stays inert: a warm-seeded solve with it set matches
// the single-worker baseline without it, bit for bit.
func TestWarmParallelRoundInvariance(t *testing.T) {
	cold := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100),
		Options{Seed: 5, MaxPasses: 20, Workers: 1})
	opts := func(workers, shards int, parallelRound bool) Options {
		return Options{Seed: 5, MaxPasses: 30, Workers: workers, Shards: shards,
			IncrementalPricing: true, ParallelRound: parallelRound, Warm: cold.Warm}
	}
	base, err := SolveInteger(randomInstance(t, 9, 8, 60, 2.0, 100), opts(1, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	for _, parallelRound := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4, 8} {
			for _, shards := range []int{0, 1, 3, 7} {
				if workers == 1 && shards == 0 && !parallelRound {
					continue
				}
				res, err := SolveInteger(randomInstance(t, 9, 8, 60, 2.0, 100),
					opts(workers, shards, parallelRound))
				if err != nil {
					t.Fatal(err)
				}
				if res.Objective != base.Objective || res.LowerBound != base.LowerBound {
					t.Errorf("parallelRound=%v workers=%d shards=%d: (%.17g, %.17g) vs baseline (%.17g, %.17g)",
						parallelRound, workers, shards, res.Objective, res.LowerBound, base.Objective, base.LowerBound)
				}
				if !identicalDuals(base.RowDuals, res.RowDuals) {
					t.Errorf("parallelRound=%v workers=%d shards=%d: row duals differ from baseline",
						parallelRound, workers, shards)
				}
				if !identicalSolutions(base.Sol, res.Sol) {
					t.Errorf("parallelRound=%v workers=%d shards=%d: warm rounded solutions differ",
						parallelRound, workers, shards)
				}
				if res.Stats.RoundWorkSet != base.Stats.RoundWorkSet || res.Stats.PolishVisits != base.Stats.PolishVisits {
					t.Errorf("parallelRound=%v workers=%d shards=%d: rounding working set %d, %d polish visits; baseline %d, %d",
						parallelRound, workers, shards, res.Stats.RoundWorkSet, res.Stats.PolishVisits,
						base.Stats.RoundWorkSet, base.Stats.PolishVisits)
				}
			}
		}
	}
}

func TestFastModeTracedSeriesInvariance(t *testing.T) {
	trace := func(workers int) (*Result, []obs.Event) {
		var buf bytes.Buffer
		rec := obs.New(&buf)
		res := mustSolve(t, randomInstance(t, 9, 8, 60, 2.0, 100),
			Options{Seed: 5, MaxPasses: 30, Workers: workers, Recorder: rec,
				IncrementalPricing: true})
		if err := rec.Close(); err != nil {
			t.Fatalf("recorder close: %v", err)
		}
		events, err := obs.ParseTrace(&buf)
		if err != nil {
			t.Fatalf("parse trace: %v", err)
		}
		return res, events
	}
	a, eventsA := trace(1)
	for _, workers := range []int{3, 8} {
		b, eventsB := trace(workers)
		if a.Objective != b.Objective || a.LowerBound != b.LowerBound {
			t.Errorf("Workers=1 vs %d: (%.17g, %.17g) vs (%.17g, %.17g)",
				workers, a.Objective, a.LowerBound, b.Objective, b.LowerBound)
		}
		if len(eventsA) != len(eventsB) {
			t.Errorf("Workers=1 vs %d: %d trace events vs %d", workers, len(eventsA), len(eventsB))
			continue
		}
		for i := range eventsA {
			ea, eb := eventsA[i], eventsB[i]
			if ea.K != eb.K || ea.Pass != eb.Pass {
				t.Errorf("Workers=1 vs %d: event %d is %s/%d vs %s/%d", workers, i, ea.K, ea.Pass, eb.K, eb.Pass)
				continue
			}
			if ea.K != "epf_pass" {
				continue
			}
			if ea.Phi != eb.Phi || ea.Objective != eb.Objective || ea.LowerBound != eb.LowerBound ||
				ea.UpperBound != eb.UpperBound || ea.Gap != eb.Gap || ea.UBGap != eb.UBGap ||
				ea.MaxViol != eb.MaxViol || ea.MaxLinkUtil != eb.MaxLinkUtil ||
				ea.MeanLinkUtil != eb.MeanLinkUtil || ea.Delta != eb.Delta || ea.Blocks != eb.Blocks {
				t.Errorf("Workers=1 vs %d: pass %d traced series diverges:\n  1: %+v\n  %d: %+v",
					workers, ea.Pass, ea, workers, eb)
			}
		}
	}
}
