package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"vodplace/internal/mip"
)

// shareSol allocates a fresh solution with video vi open at open[vi] and
// every demand office served from its first entry — the way each re-solve
// hands buildSnapshot a brand-new Result.Sol.
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

func placementBytes(snap *Snapshot) []byte {
	s := &Server{}
	s.store.Store(snap)
	w := httptest.NewRecorder()
	s.handlePlacement(w, httptest.NewRequest("GET", "/placement", nil))
	return w.Body.Bytes()
}

// densePlacement is the from-scratch reference a snapshot is checked
// against: the dense videos × offices cheapest-copy table of sol (-1 where
// a video has no open copy) and the /placement body sol should publish.
func densePlacement(t *testing.T, inst *mip.Instance, sol *mip.Solution, version uint64) (routes []int, body []byte) {
	t.Helper()
	n := inst.NumVHOs()
	routes = make([]int, len(sol.Videos)*n)
	want := placementJSON{Version: version, Certified: true, Videos: make([]placementRow, len(sol.Videos))}
	for vi := range sol.Videos {
		for j := 0; j < n; j++ {
			routes[vi*n+j] = cheapestCopy(inst, sol, vi, j)
		}
		row := placementRow{Video: inst.Demands[vi].Video, Open: []int{}}
		for _, f := range sol.Videos[vi].Open {
			if f.V >= openY {
				row.Open = append(row.Open, int(f.I))
			}
		}
		want.Videos[vi] = row
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(want); err != nil {
		t.Fatal(err)
	}
	return routes, buf.Bytes()
}

// Every snapshot in a churning sequence answers every (video, office) pair
// — through Route and through the /route encoder — and serves a /placement
// body exactly as a from-scratch dense cheapest-copy computation on its own
// solution does, including a video reverting to an earlier placement. The
// snapshot copies what it serves: scribbling over the solution after the
// build changes no answer.
func TestDeltaSnapshotSharesUnchangedPlacements(t *testing.T) {
	const videos, vhos = 200, 8
	inst := syntheticInstance(t, videos, vhos, 2, 9)
	open := make([][]int32, videos)
	for vi := range open {
		open[vi] = []int32{int32(vi % vhos)}
	}
	var buf []byte
	for version := uint64(1); version <= 6; version++ {
		if version > 1 {
			for _, vi := range []int{3, int(20 * version), videos - 1} {
				open[vi] = []int32{int32(vi+int(version)) % vhos, int32(vi+3*int(version)) % vhos}
			}
		}
		if version == 5 {
			open[3] = []int32{3} // revert: equal to v1's placement again
		}
		sol := shareSol(inst, open)
		routes, body := densePlacement(t, inst, sol, version)
		snap, err := buildSnapshot(inst, sol, version, true)
		if err != nil {
			t.Fatal(err)
		}
		for vi := range sol.Videos {
			sol.Videos[vi].Open[0].I = int32((vi + 1) % vhos)
		}
		for vi := range inst.Demands {
			id := inst.Demands[vi].Video
			for j := 0; j < vhos; j++ {
				want := routes[vi*vhos+j]
				if got, ok := snap.Route(id, j); got != want || ok != (want >= 0) {
					t.Fatalf("v%d video %d vho %d: Route = %d, %v; dense table says %d", version, id, j, got, ok, want)
				}
				var code int
				buf, code = snap.AppendRoute(buf[:0], id, j)
				var rr routeResp
				if err := json.Unmarshal(buf, &rr); err != nil || code != 200 || rr.Serve != want || rr.Version != version {
					t.Fatalf("v%d video %d vho %d: /route %d %q, dense table says %d", version, id, j, code, buf, want)
				}
			}
		}
		if got := placementBytes(snap); !bytes.Equal(got, body) {
			t.Fatalf("v%d: /placement body\n%s\nwant\n%s", version, got, body)
		}
	}
}
