package epf

import (
	"math"
	"slices"
	"sort"
	"time"

	"vodplace/internal/mip"
)

// integralTol is the tolerance below which a y value counts as integral
// (the shared stack-wide value; see the tolerance block in internal/mip).
const integralTol = mip.IntegralTol

// roundChunk is the dual-refresh cadence of the rounding and polish loops:
// link duals are recomputed once per chunk of this many videos (disk duals
// are re-priced per video).
const roundChunk = 64

func integralBlock(bs *blockSol) bool {
	for _, f := range bs.open {
		if f.V > integralTol && f.V < 1-integralTol {
			return false
		}
	}
	return true
}

// round performs the §V-D rounding pass on the solver's current point and
// rewrites res with the integral placement.
//
// Videos whose y values are already integral are left untouched. The
// remaining videos are processed in decreasing order of impact
// (s^m·(1+Σ_j a_j^m)): each is re-solved as an *integer* facility-location
// problem against the live potential (the Charikar–Guha-style local search
// in internal/facloc), then committed at full step so later videos see the
// updated congestion. Duals are refreshed every rounding chunk; the paper
// notes the whole pass costs about as much as one gradient-descent pass.
//
// Every step below — forced rounding, both polish starts and the threshold
// start — touches only the working set (roundWorkSet): the whole catalog on
// cold solves, and on warm solves the videos the descent moved off their
// warm seed. Every other video keeps its warm open set.
func (s *solver) round(res *Result) {
	roundStart := time.Now()
	// Retarget the potential for the integer phase. The LP phase left
	// B = LB and α tuned so the objective row competes with the capacity
	// rows; integer granularity cannot hold the objective that close to the
	// LP bound (the paper reports rounded gaps up to ~4% on small
	// libraries), so with the old target the objective row would dwarf
	// every capacity row and the polish would happily trade large disk
	// violations for pennies of objective. Instead the integer phase keeps
	// the objective target just above the *current* objective (r_0 ≈ 0, so
	// dual prices reduce to pure feasibility pricing exp(α·r_r)) and drives
	// the scale δ from feasibility alone.
	s.retuneScale()
	s.roundScratch = s.scratch.Get(0)
	if s.roundScratch.used == nil {
		s.roundScratch.used = make([]bool, s.n)
	}

	work := s.roundWorkSet()
	s.stats.RoundWorkSet = len(work)
	var frac []int
	for _, vi := range work {
		if !integralBlock(&s.sol[vi]) {
			frac = append(frac, vi)
		}
	}
	impact := func(vi int) float64 {
		d := &s.inst.Demands[vi]
		var a float64
		for _, v := range d.Agg {
			a += v
		}
		return d.SizeGB * (1 + a)
	}
	sort.Slice(frac, func(a, b int) bool {
		ia, ib := impact(frac[a]), impact(frac[b])
		if ia != ib {
			return ia > ib
		}
		return frac[a] < frac[b]
	})

	// Link duals (whose path aggregation is the expensive part) refresh per
	// chunk; disk duals refresh per video, because sequential disk pile-up
	// is exactly what rounding must react to — with frozen disk prices,
	// every video in a chunk would favor the same cheap office. Videos
	// commit one at a time, each seeing its predecessors' congestion.
	for lo := 0; lo < len(frac); lo += roundChunk {
		hi := min(lo+roundChunk, len(frac))
		if s.ctx.Err() != nil {
			break
		}
		s.computeDuals(s.q)
		s.computePathDuals(s.q)
		for _, vi := range frac[lo:hi] {
			s.roundVisit(vi, false, false, 0)
		}
	}

	s.retuneScale()
	bestScore := math.Inf(1)
	haveBest := false
	s.considerIntegerIncumbent(&bestScore, &haveBest)
	s.polishInteger(work, &bestScore, &haveBest)

	// Second candidate: threshold rounding of the fractional point (open
	// y ≥ ½ plus the argmax office, serve each office from its cheapest
	// copy), polished the same way under the shared incumbent. On small
	// instances the potential-guided rounding can settle in a poor local
	// optimum that this start escapes. Skipped entirely on cancellation —
	// the first candidate's incumbent is the prompt answer.
	if s.ctx.Err() == nil && s.loadThreshold(res.Sol, work) {
		s.recomputeState()
		s.retuneScale()
		s.considerIntegerIncumbent(&bestScore, &haveBest)
		s.polishInteger(work, &bestScore, &haveBest)
	}

	if haveBest {
		s.restoreBest()
		s.recomputeState()
	}

	s.stats.RoundTime = time.Since(roundStart)
	s.opts.Recorder.RecordSpan(s.opts.TraceStream, "rounding", s.stats.RoundTime)
	rounded := s.buildResult(res.Passes, res.Converged)
	rounded.Rounded = true
	*res = *rounded
}

// Integer polish budget per start: at most polishPasses passes, and a start
// stops once polishStall consecutive passes leave the shared incumbent
// unchanged. Passes after a start's first rarely improve the incumbent: on
// an 84-solve sweep the three-pass rule changed no output while running
// about two thirds of the passes, where a two-pass rule changed outputs
// (EXPERIMENTS.md, "Polish stall and open-set snapshots").
const (
	polishPasses = 6
	polishStall  = 3
)

// polishInteger runs integer polish passes over the working set work on the
// current integral point: every listed video is re-solved at live duals and
// replaced when the step criterion accepts; the shared incumbent tracks the
// best visited point. Rounding decisions were made one video at a time, so
// early videos may sit badly once later videos have landed (e.g. stacked on
// an office the duals later discover is overfull); this is the integer
// analogue of a gradient pass and costs about the same per pass.
//
// Every pass, run or skipped, shuffles a copy of work, so a start's draws
// on the solver's random stream scale with |work| (fixed per solve, the
// whole catalog on cold solves). A stalled start still draws the shuffles
// of the passes it skips, so the stall rule never moves the stream a later
// start sees. The exit after a potential pass that changed nothing skips
// the remaining shuffles, so the threshold start's stream does depend on
// whether, and after which pass, the first start took that exit.
func (s *solver) polishInteger(work []int, bestScore *float64, haveBest *bool) {
	order := slices.Clone(work)
	stalled := 0
	for pass := 0; pass < polishPasses; pass++ {
		if s.ctx.Err() != nil {
			return
		}
		if stalled >= polishStall {
			s.rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			continue
		}
		s.stats.PolishPasses++
		// Alternate the acceptance criterion: Lagrangian merit is
		// objective-aggressive (it will buy cost savings at priced
		// violations), the restricted potential is feasibility-conservative.
		// Alternating explores both sides of the trade; the incumbent keeps
		// whichever visited point scores best.
		useMerit := pass%2 == 0
		s.rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		changed := 0
		improved := false
		for lo := 0; lo < len(order); lo += roundChunk {
			hi := min(lo+roundChunk, len(order))
			s.computeDuals(s.q)
			s.computePathDuals(s.q)
			// Moves may not push any row above the chunk-start violation
			// level (or ε, whichever is larger): full-replacement steps
			// have no line-search damping, and without this trust region
			// the dual refresh between chunks lets objective and violation
			// ratchet each other upward.
			dcCap, _ := s.maxCouplingViol()
			// Merit passes may trade objective against violations up to the
			// §V-D band the paper itself reports (~4-5%); potential passes
			// stay within ε of the current level. The incumbent scoring
			// arbitrates the final choice.
			floor := s.opts.Epsilon
			if useMerit {
				floor = 4 * s.opts.Epsilon
			}
			dcCap = max(dcCap, floor)
			for _, vi := range order[lo:hi] {
				s.stats.PolishVisits++
				if s.roundVisit(vi, true, useMerit, dcCap) {
					changed++
				}
			}
			if s.considerIntegerIncumbent(bestScore, haveBest) {
				improved = true
			}
		}
		s.retuneScale()
		if changed == 0 && !useMerit {
			break
		}
		if improved {
			stalled = 0
		} else {
			stalled++
		}
	}
}

// roundVisit re-solves video vi's integer facility-location block at live
// duals and commits the result, reporting whether the block changed. Forced
// rounding (polish false) always commits, its search seeded from the latest
// descent open set under cross-period warm starts and cold otherwise (the
// pinned historical trajectory). A polish visit commits only when the step
// criterion accepts, and seeds the search from the block's current integer
// open set: the incumbent is already a local optimum of a nearby price
// vector, so a warm search reaches the new one in a few moves where the
// cold two-start solve would climb from scratch. Runs sequentially with
// worker 0's scratch and allocates nothing in steady state.
func (s *solver) roundVisit(vi int, polish, useMerit bool, dcCap float64) bool {
	bs := &s.sol[vi]
	var warm []int32
	switch {
	case polish:
		s.polishWarm = appendWarmOpen(s.polishWarm[:0], bs.open)
		warm = s.polishWarm
	case s.opts.Warm != nil:
		warm = s.warmOpen[vi]
	}
	s.addBlockRows(vi, bs, -1)
	s.refreshDiskDuals(s.q)
	oldCost := s.blockCost(vi, bs)
	ws := s.roundScratch
	s.buildBlockProblem(vi, s.q, &ws.prob)
	ws.fs.SolveWarmInto(&ws.prob, &ws.fsol, warm)
	ns := &s.roundSol
	toIntSolInto(&ws.fsol, &s.inst.Demands[vi], ws.used, ns)
	ok := !polish || s.integerStepImproves(vi, bs, ns, oldCost, useMerit, dcCap)
	if ok {
		s.replaceBlock(vi, ns)
	}
	s.addBlockRows(vi, bs, +1)
	s.obj += s.blockCost(vi, bs) - oldCost
	return ok
}

// loadThreshold overwrites the blocks of the working set work with the
// threshold rounding of the fractional solution frac: every office with
// y ≥ ½ opens (always at least the largest-y office) and each demand office
// is served from its cheapest open copy. It changes nothing and reports
// false when frac misses one of those videos entirely.
func (s *solver) loadThreshold(frac *mip.Solution, work []int) bool {
	for _, vi := range work {
		if !slices.ContainsFunc(frac.Videos[vi].Open, func(f mip.Frac) bool { return f.V > 0 }) {
			return false
		}
	}
	for _, vi := range work {
		var best int32 = -1
		var bestV float64
		open := s.polishWarm[:0]
		for _, f := range frac.Videos[vi].Open {
			if f.V > bestV {
				bestV, best = f.V, f.I
			}
			if f.V >= 0.5 {
				open = append(open, f.I)
			}
		}
		if len(open) == 0 {
			open = append(open, best)
		}
		s.polishWarm = open
		s.seedIntegralBlock(vi, open)
	}
	return true
}

// considerIntegerIncumbent scores the current integer point — objective with
// a steep penalty for coupling violations beyond ε — and snapshots it if it
// beats the incumbent, reporting whether it did. The polish loop can wander
// (duals refresh between chunks), so the best visited point, not the last,
// is returned.
func (s *solver) considerIntegerIncumbent(bestScore *float64, haveBest *bool) bool {
	dc, _ := s.maxCouplingViol()
	over := dc - s.opts.Epsilon
	if over < 0 {
		over = 0
	}
	// The weighting mirrors the paper's own outcome: a ~4% violation is an
	// acceptable price for several percent of objective (§V-D reports
	// 4.1% gap with 4.4% violation); runaway violations stay heavily
	// penalized by the quadratic term.
	score := s.obj * (1 + 3*over + 100*over*over)
	if s.obj <= 0 {
		score = over // all-local placements compete on violation alone
	}
	if score >= *bestScore {
		return false
	}
	*bestScore = score
	s.snapshotBest()
	*haveBest = true
	return true
}

// integerStepImproves decides whether replacing block vi's current solution
// cur with ns improves the chosen criterion. The block's own rows are
// already removed from act by the caller.
//
// With useMerit, the criterion is the Lagrangian merit — transfer cost plus
// dual-priced resource usage, the same objective the block facility-location
// solve minimized; it keeps the objective in play but will buy cost savings
// at priced violations. Without it, the criterion is the restricted
// potential over the touched rows plus the objective row — conservative
// about any move that pushes a busy row further.
func (s *solver) integerStepImproves(vi int, cur *blockSol, ns *intSol, curCost float64, useMerit bool, dcCap float64) bool {
	d := &s.inst.Demands[vi]
	acc := &s.step
	acc.reset(s.rows)
	for _, f := range cur.open {
		acc.add(s.rowDisk(int(f.I)), stepCur, d.SizeGB*f.V)
	}
	var newCost float64
	for _, i := range ns.open {
		acc.add(s.rowDisk(int(i)), stepNew, d.SizeGB)
	}
	for k, fr := range cur.assign {
		for _, f := range fr {
			s.addStepFlow(d, k, int(f.I), stepCur, f.V)
		}
	}
	for k, i := range ns.assign {
		newCost += d.SizeGB * d.Agg[k] * s.inst.Cost(int(i), int(d.Js[k]))
		s.addStepFlow(d, k, int(i), stepNew, 1)
	}
	if s.inst.UpdateWeight != 0 {
		for _, i := range ns.open {
			newCost += s.inst.PlacementCost(vi, int(i))
		}
	}
	// Trust region: reject replacements that push any row past dcCap.
	for _, r := range acc.rows {
		if acc.side[r]&stepNew != 0 && (s.act[r]+acc.val[stepNew][r])/s.b[r]-1 > dcCap+1e-12 {
			return false
		}
	}
	newScore, curScore := s.stepScores(useMerit, newCost, curCost)
	return newScore < curScore*(1-1e-12)
}

// addStepFlow accumulates into side the link rows of serving demand point
// k of d from office i with weight w (no rows when i is the demand office
// itself or the flow vanishes).
func (s *solver) addStepFlow(d *mip.VideoDemand, k, i int, side uint8, w float64) {
	j := int(d.Js[k])
	if i == j {
		return
	}
	path := s.inst.G.Path(i, j)
	ts, fv := d.ConcNZ(k)
	for ti, tt := range ts {
		flow := d.RateMbps * fv[ti] * w
		if flow == 0 {
			continue
		}
		for _, l := range path {
			s.step.add(s.rowLink(int(l), int(tt)), side, flow)
		}
	}
}

// stepScores evaluates the accumulated step's criterion for the candidate
// and for the current block, summing over the touched rows in ascending
// order. With useMerit it is the Lagrangian merit under the live duals,
// cost + Σ_r q_r·(block rows)_r (a row the side never touched adds an
// exact zero); otherwise the restricted potential over the union of
// touched rows plus the objective row.
func (s *solver) stepScores(useMerit bool, newCost, curCost float64) (newScore, curScore float64) {
	acc := &s.step
	slices.Sort(acc.rows)
	if useMerit {
		newScore, curScore = newCost, curCost
		for _, r := range acc.rows {
			newScore += s.q[r] * acc.val[stepNew][r]
			curScore += s.q[r] * acc.val[stepCur][r]
		}
		return newScore, curScore
	}
	for _, r := range acc.rows {
		newScore += expClamp(s.alpha * ((s.act[r]+acc.val[stepNew][r])/s.b[r] - 1))
		curScore += expClamp(s.alpha * ((s.act[r]+acc.val[stepCur][r])/s.b[r] - 1))
	}
	newScore += expClamp(s.alpha * ((s.obj-curCost+newCost)/s.bObj - 1))
	curScore += expClamp(s.alpha * ((s.obj-curCost+curCost)/s.bObj - 1))
	return newScore, curScore
}

// Sides of a step accumulation: the block's current solution and the
// candidate replacement.
const (
	stepCur uint8 = 1
	stepNew uint8 = 2
)

// stepRows accumulates the coupling rows one candidate step touches, for
// both sides at once, in dense per-row vectors stamped by generation (O(1)
// reset, no allocation) plus the list of touched rows. The criteria sum
// over that list in ascending row order, so they depend only on the
// per-row totals, never on the order rows were first touched in.
type stepRows struct {
	val   [stepNew + 1][]float64 // val[side][r]; val[0] unused
	side  []uint8                // sides that touched row r this generation
	stamp []uint32
	gen   uint32
	rows  []int32
}

// reset starts a new accumulation over a row space of size rows.
func (a *stepRows) reset(rows int) {
	if len(a.stamp) != rows {
		a.val[stepCur] = make([]float64, rows)
		a.val[stepNew] = make([]float64, rows)
		a.side = make([]uint8, rows)
		a.stamp = make([]uint32, rows)
		a.gen = 0
	}
	a.gen++
	if a.gen == 0 { // wrapped: stale stamps could collide
		clear(a.stamp)
		a.gen = 1
	}
	a.rows = a.rows[:0]
}

// add accumulates v into row r on the given side.
func (a *stepRows) add(r int, side uint8, v float64) {
	if a.stamp[r] != a.gen {
		a.stamp[r] = a.gen
		a.val[stepCur][r], a.val[stepNew][r], a.side[r] = 0, 0, 0
		a.rows = append(a.rows, int32(r))
	}
	a.side[r] |= side
	a.val[side][r] += v
}

// retuneScale re-derives the integer-phase potential from the current
// point: the objective row targets a hair above the current objective (so
// the dual prices q_r = exp(α·(r_r − r_0)) ≈ exp(α·r_r) price feasibility,
// while the raw transfer costs in the block objective keep pulling the
// objective down), and δ follows the actual coupling violation in both
// directions — unlike the LP phase, where δ only shrinks.
func (s *solver) retuneScale() {
	s.bObj = 1.001 * math.Max(s.obj, s.lb)
	if s.bObj < 1e-9 {
		s.bObj = 1e-9
	}
	dc, _ := s.maxCouplingViol()
	d := math.Max(dc, s.opts.Epsilon/2)
	s.delta = d
	s.alpha = s.opts.Gamma * math.Log(float64(s.rows)+1) / d
}

// replaceBlock overwrites block vi with the integer solution ns.
func (s *solver) replaceBlock(vi int, ns *intSol) {
	bs := &s.sol[vi]
	bs.open = bs.open[:0]
	for _, i := range ns.open {
		bs.open = append(bs.open, mip.Frac{I: i, V: 1})
	}
	for k := range bs.assign {
		bs.assign[k] = append(bs.assign[k][:0], mip.Frac{I: ns.assign[k], V: 1})
	}
}
