//go:build go1.24

// The weak package arrived in Go 1.24; go.mod admits older toolchains,
// which skip this file.

package serve

import (
	"runtime"
	"testing"
	"weak"

	"vodplace/internal/epf"
)

// A published snapshot keeps no reference to the solve's mip.Solution:
// once the caller drops it, the collector reclaims the solution and its
// per-video placements while the snapshot (and the server publishing it)
// stays live.
func TestSnapshotRetainsNoSolution(t *testing.T) {
	inst := syntheticInstance(t, 300, 8, 2, 4)
	open := make([][]int32, 300)
	for vi := range open {
		open[vi] = []int32{int32(vi % 8), int32((vi + 3) % 8)}
	}
	sol := shareSol(inst, open)
	wSol, wVideos := weak.Make(sol), weak.Make(&sol.Videos[0])
	snap, err := buildSnapshot(inst, sol, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	sol = nil
	runtime.GC()
	if wSol.Value() != nil || wVideos.Value() != nil {
		t.Error("buildSnapshot result still references the solution")
	}
	runtime.KeepAlive(snap)

	// The same through the server: the published v1 keeps only open sets.
	sinst := testInstance(t, 30, 6, 12)
	res, err := epf.SolveInteger(sinst, epf.Options{Seed: 12, MaxPasses: 200, Epsilon: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	wSol = weak.Make(res.Sol)
	s, err := NewWithResult(sinst, res, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res = nil
	runtime.GC()
	if wSol.Value() != nil {
		t.Error("published snapshot still references the solve's mip.Solution")
	}
	runtime.KeepAlive(s.Snapshot())
}
