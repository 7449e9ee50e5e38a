package serve

import (
	"bytes"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"vodplace/internal/mip"
)

// shareSol allocates a fresh solution with video vi open at open[vi] and
// every demand office served from its first entry — the way each re-solve
// hands buildSnapshotFrom a brand-new Result.Sol.
func shareSol(inst *mip.Instance, open [][]int32) *mip.Solution {
	sol := mip.NewSolution(inst)
	for vi := range sol.Videos {
		p := &sol.Videos[vi]
		for _, i := range open[vi] {
			p.Open = append(p.Open, mip.Frac{I: i, V: 1})
		}
		for k := range p.Assign {
			p.Assign[k] = []mip.Frac{{I: open[vi][0], V: 1}}
		}
	}
	return sol
}

// sharesBacking reports whether two placements use the same backing arrays
// for their open list and every assignment list.
func sharesBacking(a, b *mip.VideoPlacement) bool {
	shared := &a.Open[0] == &b.Open[0]
	for k := range a.Assign {
		shared = shared && &a.Assign[k][0] == &b.Assign[k][0]
	}
	return shared
}

func placementBytes(snap *Snapshot) []byte {
	s := &Server{}
	s.store.Store(snap)
	w := httptest.NewRecorder()
	s.handlePlacement(w, httptest.NewRequest("GET", "/placement", nil))
	return w.Body.Bytes()
}

// An incremental build shares every unchanged placement's slices with the
// previous snapshot and gives changed videos their own, while serving
// exactly what a from-scratch build of the same solution serves. Published
// solutions stay frozen: later swaps — including a video reverting to an
// earlier placement — never write a slice an earlier snapshot's Sol holds,
// while readers walk those solutions concurrently (run under -race).
func TestDeltaSnapshotSharesUnchangedPlacements(t *testing.T) {
	const videos, vhos = 200, 8
	inst := syntheticInstance(t, videos, vhos, 2, 9)
	open := make([][]int32, videos)
	for vi := range open {
		open[vi] = []int32{int32(vi % vhos)}
	}
	snap, err := buildSnapshot(inst, shareSol(inst, open), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	// Each published snapshot with the open sets it was built from.
	published := []*Snapshot{snap}
	opens := [][][]int32{slices.Clone(open)}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	read := func(sol *mip.Solution) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for vi := range sol.Videos {
					samePlacement(&sol.Videos[vi], &sol.Videos[vi])
				}
			}
		}()
	}
	read(snap.Sol)

	for version := uint64(2); version <= 6; version++ {
		changed := map[int]bool{3: true, int(20 * version): true, videos - 1: true}
		for vi := range changed {
			open[vi] = []int32{int32(vi+int(version)) % vhos}
		}
		if version == 5 {
			open[3] = []int32{3} // revert: equal to v1's placement again
		}
		prev := snap
		snap, _, err = buildSnapshotFrom(prev, nil, inst, shareSol(inst, open), version, true)
		if err != nil {
			t.Fatal(err)
		}
		for vi := range snap.Sol.Videos {
			if shared := sharesBacking(&snap.Sol.Videos[vi], &prev.Sol.Videos[vi]); shared == changed[vi] {
				t.Errorf("v%d video %d: shared=%v, changed=%v", version, vi, shared, changed[vi])
			}
		}
		full, err := buildSnapshot(inst, shareSol(inst, open), version, true)
		if err != nil {
			t.Fatal(err)
		}
		var a, b []byte
		for vi := range inst.Demands {
			for vho := -1; vho <= vhos; vho++ {
				var ca, cb int
				a, ca = snap.AppendRoute(a[:0], inst.Demands[vi].Video, vho)
				b, cb = full.AppendRoute(b[:0], inst.Demands[vi].Video, vho)
				if ca != cb || !bytes.Equal(a, b) {
					t.Fatalf("v%d route %d/%d: %d %q, full build %d %q", version, vi, vho, ca, a, cb, b)
				}
			}
		}
		if !bytes.Equal(placementBytes(snap), placementBytes(full)) {
			t.Errorf("v%d: /placement bytes differ from a from-scratch build", version)
		}
		published = append(published, snap)
		opens = append(opens, slices.Clone(open))
		read(snap.Sol)
	}
	close(stop)
	wg.Wait()
	for v, s := range published {
		want := shareSol(inst, opens[v])
		for vi := range s.Sol.Videos {
			if !samePlacement(&s.Sol.Videos[vi], &want.Videos[vi]) {
				t.Fatalf("v%d video %d: placement changed after later swaps", s.Version, vi)
			}
		}
	}
}
