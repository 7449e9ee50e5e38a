package epf_test

import (
	"testing"

	"vodplace/internal/epf"
	"vodplace/internal/verify"
)

// On a fixed instance where both polish starts would otherwise run all six
// passes, the stall rule cuts the solve to fewer than 2×6 polish passes and
// the placement still passes the independent certificate audit.
func TestPolishStallStopsEarly(t *testing.T) {
	inst, err := verify.RandomInstance(1, verify.InstanceOpts{Nodes: 10, Videos: 200})
	if err != nil {
		t.Fatal(err)
	}
	res, err := epf.SolveInteger(inst, epf.Options{Seed: 1, IncrementalPricing: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Stats.PolishPasses; n == 0 || n >= 12 {
		t.Errorf("%d integer polish passes, want a stalled start (1..11)", n)
	}
	if rep := verify.Audit(inst, res); !rep.Ok() {
		t.Fatalf("audit: %v", rep.Err())
	}
}
