package serve

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"vodplace/internal/mip"
)

// openY is the fractional-storage threshold above which an office counts as
// holding a servable copy — the same ≥ 0.5 convention mip.Solution.Copies
// uses to count copies of fractional placements. Integral placements (the
// only kind the daemon ever swaps in) sit exactly at 0 or 1.
const openY = 0.5

// Snapshot is one view of the data plane: a placement's open sets, the
// instance it was solved on, and the id map answering "which office serves
// video m for office j". A lookup scans the video's open copies against the
// instance's immutable cost table, so a snapshot costs what its open copies
// cost — not videos × offices — and keeps no reference to the solve's
// mip.Solution. The snapshot's own fields are never mutated after
// construction; the server swaps whole snapshots through an atomic pointer,
// so readers see either the old or the new placement in full — never a torn
// mix.
type Snapshot struct {
	// Version is the monotone snapshot sequence number; the initial
	// placement is version 1 and every audit-approved re-solve increments
	// it by one.
	Version uint64
	// Inst is the instance the placement was solved on. It is NOT frozen:
	// delta re-solves patch the dirty demand rows of the shared live
	// instance in place, so a published snapshot's Inst may already carry
	// newer demand than its placement was solved for. Lookups never read
	// demand, only the immutable library ids and cost table.
	Inst *mip.Instance
	// Certified reports that the placement passed the independent
	// certificate auditor (internal/verify) before it was swapped in.
	Certified bool
	// BuiltAt is the wall-clock construction time; /status and the
	// snapshot-age gauge report staleness relative to it.
	BuiltAt time.Time

	// vidIdx[id] maps a library video ID to its instance index, -1 when the
	// video is not part of this placement. Flat so the hot path is one
	// bounds check and one load, no map hashing.
	vidIdx []int32
	n      int
	// cost[j*n+i] is the transfer cost c_ij (mip.Instance.CostColumns),
	// shared with the instance: one destination's costs are contiguous.
	cost []float64

	// openOff/openIdx record each video's thresholded open set (the y ≥
	// openY offices, in solution order) in CSR form: video vi's open offices
	// are openIdx[openOff[vi]:openOff[vi+1]].
	openOff []int32
	openIdx []int32
}

// buildSnapshot validates (inst, sol) and records the placement's open
// sets. It is deliberately defensive — the fuzz target feeds it arbitrary
// hand-built placements — so malformed input yields an error, never a
// panic or a mis-route: out-of-range open offices are rejected, duplicate
// and unsorted open lists are tolerated, and videos without any open copy
// answer unreachable rather than a default office. The snapshot copies
// what it needs; sol may be reused or dropped afterwards.
func buildSnapshot(inst *mip.Instance, sol *mip.Solution, version uint64, certified bool) (*Snapshot, error) {
	if inst == nil || sol == nil {
		return nil, fmt.Errorf("serve: nil instance or solution")
	}
	if sol.Inst != inst {
		return nil, fmt.Errorf("serve: solution belongs to a different instance")
	}
	if len(sol.Videos) != len(inst.Demands) {
		return nil, fmt.Errorf("serve: %d video placements for %d demands", len(sol.Videos), len(inst.Demands))
	}
	n := inst.NumVHOs()
	nv := len(inst.Demands)
	s := &Snapshot{
		Version:   version,
		Inst:      inst,
		Certified: certified,
		BuiltAt:   time.Now(),
		n:         n,
		cost:      inst.CostColumns(),
		openOff:   make([]int32, nv+1),
	}
	maxID := -1
	for vi := range inst.Demands {
		id := inst.Demands[vi].Video
		if id < 0 {
			return nil, fmt.Errorf("serve: video index %d has negative library id %d", vi, id)
		}
		maxID = max(maxID, id)
	}
	s.vidIdx = make([]int32, maxID+1)
	for i := range s.vidIdx {
		s.vidIdx[i] = -1
	}
	for vi := range inst.Demands {
		id := inst.Demands[vi].Video
		if s.vidIdx[id] != -1 {
			return nil, fmt.Errorf("serve: duplicate library id %d", id)
		}
		s.vidIdx[id] = int32(vi)
	}

	// Sized exactly: the open-office list is most of what a published
	// snapshot retains.
	nnz := 0
	for vi := range sol.Videos {
		for _, f := range sol.Videos[vi].Open {
			if f.V >= openY {
				nnz++
			}
		}
	}
	s.openIdx = make([]int32, 0, nnz)
	for vi := range sol.Videos {
		for _, f := range sol.Videos[vi].Open {
			if f.V < openY {
				continue
			}
			if int(f.I) < 0 || int(f.I) >= n {
				return nil, fmt.Errorf("serve: video %d open office %d out of range [0,%d)", vi, f.I, n)
			}
			s.openIdx = append(s.openIdx, f.I)
		}
		s.openOff[vi+1] = int32(len(s.openIdx))
	}
	return s, nil
}

// open returns video index vi's open offices.
func (s *Snapshot) open(vi int32) []int32 {
	return s.openIdx[s.openOff[vi]:s.openOff[vi+1]]
}

// serving returns the cheapest copy in open for a request at office j: the
// open office with minimal transfer cost c_ij, lowest office index on ties;
// -1 when open is empty. Every answer the data plane gives goes through here.
func (s *Snapshot) serving(open []int32, j int) int32 {
	if len(open) == 0 {
		return -1
	}
	col := s.cost[j*s.n : (j+1)*s.n]
	best := open[0]
	bestCost := col[best]
	for _, i := range open[1:] {
		if c := col[i]; c < bestCost || (c == bestCost && i < best) {
			best, bestCost = i, c
		}
	}
	return best
}

// routeDelta compares the answers of two consecutive snapshots, matching
// videos by library id so re-solves over a changed catalog compare
// sensibly. changed counts the (video, office) routing answers that differ
// — a video present on only one side contributes a full row — and is the
// churn number a swap event reports. rebuilt counts the videos whose
// answers had to be re-derived: those whose open set changed when both
// snapshots index the same live instance, every video otherwise (a full
// rebuild re-streams the catalog). A video with an unchanged open set over
// the same cost table answers every office the same, so it is skipped.
func routeDelta(old, cur *Snapshot) (changed, rebuilt int64) {
	nv := int64(len(cur.openOff) - 1)
	if old == nil {
		return nv * int64(cur.n), nv
	}
	sameInst := old.Inst == cur.Inst
	if !sameInst {
		rebuilt = nv
	}
	sameCost := old.n == cur.n && slices.Equal(old.cost, cur.cost)
	for id, vi := range cur.vidIdx {
		if vi < 0 {
			continue
		}
		var ovi int32 = -1
		if id < len(old.vidIdx) {
			ovi = old.vidIdx[id]
		}
		if ovi < 0 || old.n != cur.n {
			changed += int64(cur.n) // only across instances: ids are immutable
			continue
		}
		open, oldOpen := cur.open(vi), old.open(ovi)
		if sameCost && slices.Equal(open, oldOpen) {
			continue
		}
		if sameInst {
			rebuilt++
		}
		for j := 0; j < cur.n; j++ {
			if cur.serving(open, j) != old.serving(oldOpen, j) {
				changed++
			}
		}
	}
	for id, ovi := range old.vidIdx {
		if ovi >= 0 && (id >= len(cur.vidIdx) || cur.vidIdx[id] < 0) {
			changed += int64(old.n)
		}
	}
	return changed, rebuilt
}

// Route returns the serving office for library video id at office vho.
// ok is false when the video is not in this placement, vho is out of range,
// or the video has no open copy. It performs no allocations.
func (s *Snapshot) Route(videoID, vho int) (office int, ok bool) {
	if vho < 0 || vho >= s.n || videoID < 0 || videoID >= len(s.vidIdx) {
		return -1, false
	}
	vi := s.vidIdx[videoID]
	if vi < 0 {
		return -1, false
	}
	i := s.serving(s.open(vi), vho)
	return int(i), i >= 0
}

// NumVideos returns the number of videos in this placement.
func (s *Snapshot) NumVideos() int { return len(s.openOff) - 1 }

// NumVHOs returns the number of offices.
func (s *Snapshot) NumVHOs() int { return s.n }

// Route response statuses, shared by AppendRoute and the HTTP handler.
const (
	routeOK          = 200
	routeNotFound    = 404
	routeUnreachable = 404
)

// AppendRoute answers one /route lookup: it appends the JSON response body
// for (videoID, vho) to buf and returns the extended buffer plus the HTTP
// status code. This is the data-plane hot path — a version-stamped route
// answer is an id-map load, a scan of the video's open copies and a
// hand-rolled JSON encode into the caller's reused buffer, so the steady
// state allocates nothing (pinned by TestRouteZeroAllocations).
func (s *Snapshot) AppendRoute(buf []byte, videoID, vho int) ([]byte, int) {
	if vho < 0 || vho >= s.n {
		buf = append(buf, `{"error":"unknown vho"`...)
		buf = appendKV(buf, `,"vho":`, int64(vho))
		buf = appendKV(buf, `,"version":`, int64(s.Version))
		buf = append(buf, "}\n"...)
		return buf, routeNotFound
	}
	var vi int32 = -1
	if videoID >= 0 && videoID < len(s.vidIdx) {
		vi = s.vidIdx[videoID]
	}
	if vi < 0 {
		buf = append(buf, `{"error":"unknown video"`...)
		buf = appendKV(buf, `,"video":`, int64(videoID))
		buf = appendKV(buf, `,"version":`, int64(s.Version))
		buf = append(buf, "}\n"...)
		return buf, routeNotFound
	}
	i := s.serving(s.open(vi), vho)
	if i < 0 {
		buf = append(buf, `{"error":"unreachable"`...)
		buf = appendKV(buf, `,"video":`, int64(videoID))
		buf = appendKV(buf, `,"vho":`, int64(vho))
		buf = appendKV(buf, `,"version":`, int64(s.Version))
		buf = append(buf, "}\n"...)
		return buf, routeUnreachable
	}
	buf = append(buf, `{"video":`...)
	buf = strconv.AppendInt(buf, int64(videoID), 10)
	buf = appendKV(buf, `,"vho":`, int64(vho))
	buf = appendKV(buf, `,"serve":`, int64(i))
	buf = appendKV(buf, `,"hops":`, int64(s.Inst.Hops(int(i), vho)))
	buf = append(buf, `,"cost":`...)
	buf = strconv.AppendFloat(buf, s.Inst.Cost(int(i), vho), 'g', -1, 64)
	buf = appendKV(buf, `,"version":`, int64(s.Version))
	buf = append(buf, "}\n"...)
	return buf, routeOK
}

func appendKV(b []byte, prefix string, v int64) []byte {
	b = append(b, prefix...)
	return strconv.AppendInt(b, v, 10)
}

// parseRouteQuery extracts video= and vho= from a raw query string without
// allocating. Both parameters must appear exactly once with a plain decimal
// value; unknown parameters are ignored. Returns ok=false on any malformed
// input (the 400 contract).
func parseRouteQuery(q string) (video, vho int, ok bool) {
	video, vho = -1, -1
	haveVideo, haveVHO := false, false
	for len(q) > 0 {
		var kv string
		if i := indexByte(q, '&'); i >= 0 {
			kv, q = q[:i], q[i+1:]
		} else {
			kv, q = q, ""
		}
		eq := indexByte(kv, '=')
		if eq < 0 {
			return 0, 0, false
		}
		key, val := kv[:eq], kv[eq+1:]
		switch key {
		case "video":
			if haveVideo {
				return 0, 0, false
			}
			v, good := parseUint(val)
			if !good {
				return 0, 0, false
			}
			video, haveVideo = v, true
		case "vho":
			if haveVHO {
				return 0, 0, false
			}
			v, good := parseUint(val)
			if !good {
				return 0, 0, false
			}
			vho, haveVHO = v, true
		}
	}
	return video, vho, haveVideo && haveVHO
}

func indexByte(s string, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}

// parseUint parses a plain decimal value in [0, 1e9); anything else —
// empty, signs, hex, percent-escapes, overflow — is malformed.
func parseUint(s string) (int, bool) {
	if len(s) == 0 || len(s) > 9 {
		return 0, false
	}
	v := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	return v, true
}
