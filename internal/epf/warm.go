package epf

import (
	"math"

	"vodplace/internal/mip"
)

// WarmVideo is the per-video slice of a WarmState: the offices holding the
// video in the previous period's final placement.
type WarmVideo struct {
	// Open is the previous solve's open office set for this video, ascending.
	Open []int32
}

// WarmState is the cross-period carryover exported on every Result: the
// final Lagrangian row duals, the descent's final penalty scale, and each
// video's final open office set keyed by the catalog's stable video ID. A
// later solve over a shifted instance accepts it via Options.Warm to seed
// its initial point, its initial lower bound and its facility-location
// local searches.
//
// Staleness rules: the dual vector is used only when its dimension matches
// the new instance's coupling rows exactly (same office count, link count
// and slice count); open sets are matched per video ID, so catalog churn
// (new releases, evictions) degrades gracefully — unknown videos fall back
// to the cold single-copy init, known ones keep their sets. A warm solve is
// therefore always well-formed; warmth only changes the starting point, and
// every bound it reports is re-derived on the new instance.
type WarmState struct {
	// RowDuals is the coupling-row dual vector that certified the previous
	// solve's lower bound (layout as Result.RowDuals). It aliases the
	// producing Result's RowDuals slice; treat it as read-only. The layout
	// is shard-independent — duals are keyed by coupling row, never by
	// shard — so warm states move freely between sharded and unsharded
	// solves and across shard counts.
	RowDuals []float64
	// Delta is the penalty scale δ the previous LP descent ended at.
	Delta float64
	// Videos maps catalog video ID → final open set.
	Videos map[int]WarmVideo
}

// exportWarm captures the solver's final state as a WarmState. Called from
// buildResult on every solve (cold or warm) so any Result can seed the next
// period; the export reads only driver-goroutine state and never feeds back
// into the producing solve.
func (s *solver) exportWarm(res *Result) *WarmState {
	w := &WarmState{
		RowDuals: res.RowDuals,
		Delta:    s.lpDelta,
		Videos:   make(map[int]WarmVideo, len(s.sol)),
	}
	for vi := range s.sol {
		open := appendWarmOpen(nil, s.sol[vi].open)
		if len(open) == 0 {
			continue
		}
		w.Videos[s.inst.Demands[vi].Video] = WarmVideo{Open: open}
	}
	return w
}

// appendWarmOpen appends the integral open set of a block to dst: offices
// with y ≥ ½, falling back to the largest-y office when the block is spread
// thin. The input is ascending, so the appended run is too.
func appendWarmOpen(dst []int32, open []mip.Frac) []int32 {
	n0 := len(dst)
	var best int32 = -1
	var bestV float64
	for _, f := range open {
		if f.V > bestV {
			bestV, best = f.V, f.I
		}
		if f.V >= 0.5 {
			dst = append(dst, f.I)
		}
	}
	if len(dst) == n0 && best >= 0 {
		dst = append(dst, best)
	}
	return dst
}

// warmVideoOpen returns the valid warm open set for video index vi, or nil
// when the warm state has none (unknown ID, or offices outside [0, n) from a
// topology change) — the per-video cold fallback.
func (s *solver) warmVideoOpen(vi int) []int32 {
	w := s.opts.Warm
	if w == nil {
		return nil
	}
	wv, ok := w.Videos[s.inst.Demands[vi].Video]
	if !ok || len(wv.Open) == 0 {
		return nil
	}
	for _, i := range wv.Open {
		if i < 0 || int(i) >= s.n {
			return nil
		}
	}
	return wv.Open
}

// seedIntegralBlock sets block vi to the integral block with the given open
// set: every listed office holds a full copy and each demand office is
// served from its cheapest open copy (the earliest listed on ties — the
// lowest index for an ascending set, matching the deterministic scan order
// used everywhere else). The block's buffers are reused.
func (s *solver) seedIntegralBlock(vi int, open []int32) {
	d := &s.inst.Demands[vi]
	bs := &s.sol[vi]
	bs.open = bs.open[:0]
	for _, i := range open {
		bs.open = append(bs.open, mip.Frac{I: i, V: 1})
	}
	if bs.assign == nil {
		bs.assign = make([][]mip.Frac, len(d.Js))
	}
	for k := range bs.assign {
		bs.assign[k] = append(bs.assign[k][:0], mip.Frac{I: s.cheapestOpen(d.Js[k], open), V: 1})
	}
}

// cheapestOpen returns the office of open that serves demand office j at the
// least cost, the earliest listed on ties.
func (s *solver) cheapestOpen(j int32, open []int32) int32 {
	col := s.costT[int(j)*s.n : (int(j)+1)*s.n]
	bi := open[0]
	for _, i := range open[1:] {
		if col[i] < col[bi] {
			bi = i
		}
	}
	return bi
}

// roundWorkSet returns, ascending, the videos the integer phase may touch.
// Cold solves touch the whole catalog. A warm solve touches every video
// whose block is not exactly the integral block its valid warm open set
// seeded (fractional, or a different open set or assignment — the descent
// moved it), plus every video that had no valid warm seed; every other
// video is already an integral block on the previous period's open set and
// keeps it. The set is computed from solver state alone:
// Options.DirtyVideos is telemetry and never enters it (DESIGN.md §13).
func (s *solver) roundWorkSet() []int {
	work := make([]int, 0, len(s.sol))
	for vi := range s.sol {
		if s.opts.Warm == nil || !s.atWarmSeed(vi) {
			work = append(work, vi)
		}
	}
	return work
}

// atWarmSeed reports whether block vi is exactly the block seedIntegralBlock
// builds from its valid warm open set.
func (s *solver) atWarmSeed(vi int) bool {
	open := s.warmVideoOpen(vi)
	bs := &s.sol[vi]
	if open == nil || len(bs.open) != len(open) {
		return false
	}
	for x, f := range bs.open {
		if f.I != open[x] || f.V != 1 {
			return false
		}
	}
	d := &s.inst.Demands[vi]
	for k, fr := range bs.assign {
		if len(fr) != 1 || fr[0].V != 1 || fr[0].I != s.cheapestOpen(d.Js[k], open) {
			return false
		}
	}
	return true
}

// seedWarmDescent folds the warm state into the freshly initialized descent:
// the previous duals are re-evaluated on this instance (a valid Lagrangian
// bound wherever they came from, so the certificate invariant holds — if the
// warm bound wins, lbDuals is exactly the vector that achieves it) and seed
// the smoothed-dual series; the previous δ may sharpen the initial penalty
// scale but never below the seeded point's actual violation. Called from
// initDescent, after the cold defaults are in place.
func (s *solver) seedWarmDescent() {
	w := s.opts.Warm
	if w == nil {
		return
	}
	dualsOK := len(w.RowDuals) == s.rows && finiteNonNegative(w.RowDuals)
	if dualsOK {
		if lr := s.lagrangianBound(w.RowDuals); lr > s.lb {
			s.lb = lr
			copy(s.lbDuals, w.RowDuals)
		}
		copy(s.qBar, w.RowDuals)
		s.qBarSet = true
		s.lbScale = 1
		s.retargetB()
	}
	// The δ hint describes where the previous descent's *guided* trajectory
	// ended; without the dual guidance (stale vector rejected above) a small
	// δ over the concentrated warm point sends the exponential penalties into
	// overdrive and the descent thrashes — so they ride only with the duals.
	if !dualsOK {
		return
	}
	if w.Delta > 0 {
		dc, _ := s.maxCouplingViol()
		floor := math.Max(dc, s.opts.Epsilon/2)
		if d := math.Max(w.Delta, floor); d < s.delta {
			s.delta = d
			s.alpha = s.gammaLnM1 / s.delta
		}
	}
}

// finiteNonNegative reports whether every entry is a usable dual value.
func finiteNonNegative(v []float64) bool {
	for _, x := range v {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
