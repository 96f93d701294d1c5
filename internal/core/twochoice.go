package core

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/cache"
	"repro/internal/grid"
)

// RadiusUnbounded selects r = ∞ (equivalently r ≥ torus diameter; the
// paper uses r = √n and r = ∞ interchangeably, footnote 2).
const RadiusUnbounded = -1

// TwoChoiceConfig parameterizes Strategy II and its generalizations.
type TwoChoiceConfig struct {
	// Radius is the proximity constraint r in hops. RadiusUnbounded (or
	// any value ≥ the torus diameter) removes the constraint.
	Radius int
	// Choices is d, the number of candidate replicas sampled per request
	// (0 defaults to the paper's d = 2; d = 1 is the random-replica
	// baseline).
	Choices int
	// NoEscalate disables widening the search to r = ∞ when B_r(u) holds
	// no replica; such requests are then served via backhaul at the
	// origin. The default escalation matches DESIGN.md §4.4.
	NoEscalate bool
	// Beta, when in (0, 1), enables the (1+β)-choice process
	// (Mitzenmacher et al.): each request uses the full d choices with
	// probability β and a single random choice otherwise, trading load
	// balance for probe traffic. 0 (and 1) mean "always d choices".
	Beta float64
}

// TwoChoice is Strategy II (Definition 3): sample d (=2) uniform replicas
// of the requested file within hop radius r of the origin and assign the
// request to the least loaded, ties uniform. Choices = 1 is the
// random-replica baseline, and NewLeastLoadedOracle builds the
// full-information one.
type TwoChoice struct {
	common
	cfg     TwoChoiceConfig
	ballN   int             // |B_r| on the torus (candidate-space size for rejection)
	ball    *grid.BallTable // precomputed B_r template (nil when inapplicable)
	ballBuf []int32
	candBuf []int32
	seenBuf []int32 // a fast draw's d candidates

	// Tile-index path (bound when the placement carries a TileIndex).
	tix         *cache.TileIndex
	boundTiling *grid.Tiling     // geometry the cover/buffers were built for
	cover       *grid.CoverTable // radius cover memo (nil → per-query CoverRows)
	rowBuf      []grid.CoverRow  // per-query cover rows when cover is nil
	runs        []tileRun        // per covered tile holding replicas of the file
	gl          int              // grid side, for table-free distance arithmetic
	torus       bool

	// Fault-injection path (bound when the engine runs with Faults on).
	live      *cache.Liveness // nil = liveness-blind (golden-pinned paths)
	liveTiles bool            // live counts share boundTiling: tile skip valid
	liveBuf   []int32         // live-filtered pool scratch (degradation ladder)
	retried   bool            // per-Assign: a dead candidate was rejected

	oracle bool // built by NewLeastLoadedOracle: named least-loaded
}

// tileRun is one covered tile's replica slice: reps[start:start+n] of the
// file's S_j, with full reporting whether the tile lies entirely inside
// B_r(u). A placement without a tile index is one run, all of S_j, not
// full.
type tileRun struct {
	start int32
	n     int32
	full  bool
}

// NewTwoChoice builds Strategy II. It panics on nonsensical configuration
// (Choices < 0 or Radius < RadiusUnbounded).
func NewTwoChoice(g *grid.Grid, p *cache.Placement, cfg TwoChoiceConfig) *TwoChoice {
	if cfg.Choices < 0 {
		panic(fmt.Sprintf("core: negative choice count %d", cfg.Choices))
	}
	if cfg.Choices == 0 {
		cfg.Choices = 2
	}
	if cfg.Radius < RadiusUnbounded {
		panic(fmt.Sprintf("core: invalid radius %d", cfg.Radius))
	}
	if cfg.Beta < 0 || cfg.Beta > 1 {
		panic(fmt.Sprintf("core: beta must lie in [0,1], got %v", cfg.Beta))
	}
	if cfg.Radius == RadiusUnbounded || cfg.Radius >= g.Diameter() {
		cfg.Radius = RadiusUnbounded
	}
	t := &TwoChoice{common: newCommon(g, p), cfg: cfg,
		gl: g.Side(), torus: g.Topology() == grid.Torus}
	if cfg.Radius != RadiusUnbounded {
		t.ballN = g.BallSize(cfg.Radius)
		t.ball = g.NewBallTable(cfg.Radius)
		t.bindIndex()
	}
	return t
}

// bindIndex adopts the placement's spatial replica index, if any, and
// (re)builds the radius cover memo over its tile geometry. With an
// index bound, Assign walks the tiles covering B_r(u) instead of one run
// over all of S_j.
func (s *TwoChoice) bindIndex() {
	tix := s.p.TileIndex()
	if tix == nil {
		s.tix, s.cover, s.boundTiling = nil, nil, nil
		s.bindLiveTiles()
		return
	}
	// Compare against the tiling the cover was actually built for — a
	// Placer rebinding a different tiling reuses the same TileIndex
	// address, so comparing through s.tix could never detect the swap.
	if s.boundTiling != tix.Tiling() {
		s.boundTiling = tix.Tiling()
		s.cover = tix.Tiling().NewCoverTable(s.cfg.Radius)
		// Pre-size the per-request buffers to their worst case — every
		// covered tile holds an in-ball cell, so cover rows and runs are
		// bounded by min(|B_r|, #tiles) and exact candidate lists by
		// |B_r| — keeping steady-state trials allocation-free from the
		// first placement instead of creeping to a high-water mark.
		maxRuns := min(s.ballN, tix.Tiling().Tiles())
		if cap(s.runs) < maxRuns {
			s.runs = make([]tileRun, 0, maxRuns)
		}
		if s.cover == nil && cap(s.rowBuf) < maxRuns {
			s.rowBuf = make([]grid.CoverRow, 0, maxRuns)
		}
		if cap(s.candBuf) < s.ballN {
			s.candBuf = make([]int32, 0, s.ballN)
		}
		if cap(s.ballBuf) < s.ballN {
			s.ballBuf = make([]int32, 0, s.ballN) // dense exact fallback
		}
		// A fast draw holds d candidates; a d above |B_r| grows the
		// buffer on demand.
		if d := min(max(s.cfg.Choices, 4), s.ballN); cap(s.seenBuf) < d {
			s.seenBuf = make([]int32, 0, d)
		}
	}
	s.tix = tix
	s.bindLiveTiles()
}

// bindLiveTiles decides whether the per-tile live counts can gate the
// tile walk: only when the liveness mask counts over the very tiling the
// index buckets by (the engine binds both to the world's tiling; any
// mismatch just disables the skip, never corrupts it).
func (s *TwoChoice) bindLiveTiles() {
	s.liveTiles = s.live != nil && s.boundTiling != nil && s.live.Tiling() == s.boundTiling
}

// SetLiveness implements LivenessAware. Binding a mask routes every
// candidate path through the graceful-degradation ladder; binding nil
// restores the exact liveness-blind draw sequences.
func (s *TwoChoice) SetLiveness(lv *cache.Liveness) {
	s.live = lv
	if lv != nil && cap(s.liveBuf) < s.g.N() {
		s.liveBuf = make([]int32, 0, s.g.N())
	}
	s.bindLiveTiles()
}

// Rebind implements Rebindable: swap the placement, keep scratch.
func (s *TwoChoice) Rebind(p *cache.Placement) {
	s.common.rebind(p)
	if s.cfg.Radius != RadiusUnbounded {
		s.bindIndex()
	}
}

// Name implements Strategy.
func (s *TwoChoice) Name() string {
	switch {
	case s.oracle:
		return fmt.Sprintf("least-loaded(r=%s)", s.radiusLabel())
	case s.cfg.Choices == 1:
		return fmt.Sprintf("one-choice(r=%s)", s.radiusLabel())
	}
	return fmt.Sprintf("%d-choice(r=%s)", s.cfg.Choices, s.radiusLabel())
}

func (s *TwoChoice) radiusLabel() string {
	if s.cfg.Radius == RadiusUnbounded {
		return "inf"
	}
	return fmt.Sprintf("%d", s.cfg.Radius)
}

// Radius returns the effective proximity constraint (RadiusUnbounded when
// unrestricted).
func (s *TwoChoice) Radius() int { return s.cfg.Radius }

// Assign implements Strategy: the ladder, walking the request's tile
// runs itself.
func (s *TwoChoice) Assign(req Request, loads LoadReader, r *rand.Rand) Assignment {
	return s.ladder(req, walkHere, loads, r)
}

// walkHere tells ladder that no walk was planned: it walks the tile runs
// itself.
const walkHere = -2

// ladder is the one candidate ladder of Strategy II, one-choice and the
// oracle. The (1+β) coin sets d. At a bounded radius a fast draw is
// tried first, except by the oracle: rejection straight off a dense
// file's bitmap, or off the tile runs of S_j covering B_r(u) when they
// hold more than 3d replicas (fewer are cheaper to materialize). A spent
// budget, or any other request, falls through to the exact pool
// S_j ∩ B_r(u); an empty pool escalates to S_j (backhaul under
// NoEscalate), and d draws from the pool — the oracle's whole pool — are
// folded into the least loaded. A pool with no live member backhauls. A
// placement without a tile index always takes the exact pool: its one
// run is all of S_j, of which the ball holds only about |B_r|/n.
//
// The walk of the runs (collectRuns) reads neither loads nor the RNG, so
// it can run ahead of the rest (Plan): total is the replica total of a
// planned walk already in s.runs, or walkHere. Either way every draw is
// the same.
func (s *TwoChoice) ladder(req Request, total int, loads LoadReader, r *rand.Rand) Assignment {
	s.retried = false
	reps := s.p.Replicas(int(req.File))
	if len(reps) == 0 {
		return backhaul(req)
	}
	d := s.cfg.Choices
	if s.cfg.Beta > 0 && s.cfg.Beta < 1 && r.Float64() >= s.cfg.Beta {
		d = 1 // the (1+β) process degrades to one choice this round
	}
	walked := false
	if bits := s.fileBits(req.File); bits != nil {
		if !s.oracle && s.ball != nil {
			if srv, ok := s.sampleFromBits(req, reps, bits, d, loads, r); ok {
				return s.served(req, srv, false)
			}
		}
	} else if s.cfg.Radius != RadiusUnbounded {
		if total == walkHere {
			total = s.collectRuns(req.Origin, req.File, int32(len(reps)))
		}
		walked = true
		if !s.oracle && s.tix != nil && total > 3*d {
			if srv, ok := s.sampleFromRuns(req, reps, total, d, loads, r); ok {
				return s.served(req, srv, false)
			}
		}
	}
	pool, escalated := s.exactPool(req, reps, walked), false
	if len(pool) == 0 {
		if s.cfg.NoEscalate {
			return s.served(req, -1, false)
		}
		pool, escalated = reps, true
	}
	return s.served(req, s.drawPool(pool, d, loads, r), escalated)
}

// Plans holds the candidate walks of a run of requests planned ahead of
// their assignment, in request order, in arenas sized once by NewPlans.
type Plans struct {
	runs []tileRun    // the walks' runs, back to back
	reqs []plannedReq // one entry per planned request
}

// plannedReq locates one request's walk in Plans.runs: it ends at end
// and holds total replicas; total −1 marks a request whose search walks
// no runs.
type plannedReq struct {
	end, total int32
}

// NewPlans returns an empty Plans with room for requests walks holding
// runs tile runs in all.
func NewPlans(requests, runs int) *Plans {
	return &Plans{runs: make([]tileRun, 0, runs), reqs: make([]plannedReq, 0, requests)}
}

// Reset empties pl, keeping its arenas.
func (pl *Plans) Reset() {
	pl.runs, pl.reqs = pl.runs[:0], pl.reqs[:0]
}

// Len returns the number of requests planned.
func (pl *Plans) Len() int { return len(pl.reqs) }

// Plan appends req's candidate walk to pl, or reports false, planning
// nothing, when pl has no room left for it. The walk is a function of
// the bound placement, its tile index and the liveness mask alone, so a
// walk planned before its request is assigned is the one Assign would
// make, as long as nothing mutates the placement or the mask in between.
func (s *TwoChoice) Plan(req Request, pl *Plans) bool {
	if len(pl.reqs) == cap(pl.reqs) {
		return false
	}
	total := -1
	if s.walks(req.File) {
		total = s.collectRuns(req.Origin, req.File, int32(len(s.p.Replicas(int(req.File)))))
		if len(pl.runs)+len(s.runs) > cap(pl.runs) {
			return false
		}
		pl.runs = append(pl.runs, s.runs...)
	}
	pl.reqs = append(pl.reqs, plannedReq{end: int32(len(pl.runs)), total: int32(total)})
	return true
}

// AssignPlanned is Assign for req, the i-th request planned into pl
// (possibly by another instance bound to the same state): the same
// decision and the same draws. It copies the planned runs into s.runs,
// where the ladder's own walk would leave them, and runs the ladder
// without walking.
func (s *TwoChoice) AssignPlanned(req Request, pl *Plans, i int, loads LoadReader, r *rand.Rand) Assignment {
	var start int32
	if i > 0 {
		start = pl.reqs[i-1].end
	}
	e := pl.reqs[i]
	s.runs = append(s.runs[:0], pl.runs[start:e.end]...)
	return s.ladder(req, int(e.total), loads, r)
}

// walks reports whether the ladder walks runs of S_j for a request for
// file: a bounded radius and a file that is not dense.
func (s *TwoChoice) walks(file int32) bool {
	return s.cfg.Radius != RadiusUnbounded && s.fileBits(file) == nil
}

// fileBits returns the dense bitmap of file, or nil when the file is
// stored as tile runs or no tile index is bound.
func (s *TwoChoice) fileBits(file int32) []uint64 {
	if s.tix == nil {
		return nil
	}
	return s.tix.FileBits(int(file))
}

// exactPool materializes S_j ∩ B_r(u) for req — only its live members
// under a liveness mask — by the file's representation: S_j itself at
// r = ∞, the walked runs (s.runs holds req's walk), or the ball's
// bitmap hits for a dense file.
func (s *TwoChoice) exactPool(req Request, reps []int32, walked bool) []int32 {
	switch {
	case s.cfg.Radius == RadiusUnbounded:
		return reps
	case walked:
		s.candBuf = s.indexExactCandidates(req.Origin, reps, s.candBuf[:0])
	default:
		s.candBuf = s.bitExactCandidates(int(req.Origin), s.tix.FileBits(int(req.File)), s.candBuf[:0])
	}
	return s.candBuf
}

// collectRuns walks the tiles overlapping B_r(u) and gathers, for the
// requested file, one run per covered tile holding replicas: its offset
// into the file's S_j (size replicas long), its length, and whether the
// tile is fully inside the ball. Returns the total replica count across
// the runs. The runs are a superset of S_j ∩ B_r(u) (partial tiles may
// hold out-of-ball replicas) and cover it completely, so weight 0 proves
// the intersection empty. Without a tile index the walk is one partial
// run, all of S_j.
//
// The cover comes as tile-row runs — memoized on tori the CoverTable
// serves, computed per query elsewhere — and the walk intersects each
// run with the file's sorted tile directory: one position jump per run
// (interpolated by the directory's tile density) followed by a
// contiguous scan. Runs are gathered in the cover's order, which the
// samplers' draws index into.
func (s *TwoChoice) collectRuns(origin, file, size int32) int {
	s.runs = s.runs[:0]
	if s.tix == nil {
		s.runs = append(s.runs, tileRun{0, size, false})
		return int(size)
	}
	tiles, starts := s.tix.FileRuns(int(file))
	n := len(tiles)
	if n == 0 {
		return 0
	}
	var rows []grid.CoverRow
	var utx, uty, per int
	if s.cover != nil {
		rows, utx, uty, per = s.cover.Rows(int(origin))
	} else {
		s.rowBuf, utx, uty, per = s.tix.Tiling().CoverRows(int(origin), s.cfg.Radius, s.rowBuf[:0])
		rows = s.rowBuf
	}
	density := float64(n) / float64(int(tiles[n-1])-int(tiles[0])+1)
	total := 0
	pos := 0
	lastID := -1
	for _, row := range rows {
		ty := uty + int(row.Dty)
		if ty >= per {
			ty -= per
		} else if ty < 0 {
			ty += per
		}
		rowBase := ty * per
		c0, c1 := utx+int(row.C0), utx+int(row.C1)
		// A memoized run that crosses the torus's edge splits into two
		// absolute column spans.
		var spans [2][2]int
		ns := 1
		switch {
		case c0 < 0:
			spans[0] = [2]int{c0 + per, per - 1}
			spans[1] = [2]int{0, c1}
			ns = 2
		case c1 >= per:
			spans[0] = [2]int{c0, per - 1}
			spans[1] = [2]int{0, c1 - per}
			ns = 2
		default:
			spans[0] = [2]int{c0, c1}
		}
		for si := 0; si < ns; si++ {
			lo := rowBase + spans[si][0]
			hi := rowBase + spans[si][1]
			if lo <= lastID {
				pos = 0 // the span lies behind the cursor
			}
			lastID = hi
			pos = interpSearch(tiles, pos, int32(lo), density)
			for ; pos < n && int(tiles[pos]) <= hi; pos++ {
				d := int(tiles[pos]) - rowBase - utx
				if d > int(row.C1) {
					d -= per
				} else if d < int(row.C0) {
					d += per
				}
				total += s.pushRun(starts, pos, size, d >= int(row.F0) && d <= int(row.F1), tiles[pos])
			}
		}
	}
	return total
}

// pushRun appends directory entry pos as a tileRun and returns its
// replica count. The run ends at the next entry's start (usually the
// same cache line) or at size, the end of S_j. Tiles with zero live
// nodes are skipped outright when the liveness counts share the index's
// tiling — their replicas cannot serve, so dropping the run keeps the
// sampler weights proportional to potentially-live candidates and lets
// a region-wide failure erase whole tiles in O(1).
func (s *TwoChoice) pushRun(starts []int32, pos int, size int32, full bool, tid int32) int {
	if s.liveTiles && s.live.TileLive(tid) == 0 {
		return 0
	}
	start := starts[pos]
	end := size
	if pos+1 < len(starts) {
		end = starts[pos+1]
	}
	s.runs = append(s.runs, tileRun{start, end - start, full})
	return int(end - start)
}

// interpSearch returns the smallest i ≥ pos with tiles[i] ≥ tid. The
// first probe interpolates by the directory's tile density (entries per
// tile id), which lands within a few slots on the near-uniform
// directories the placement produces; a doubling gallop brackets any
// miss and a binary search finishes.
func interpSearch(tiles []int32, pos int, tid int32, density float64) int {
	n := len(tiles)
	if pos >= n || tiles[pos] >= tid {
		return pos
	}
	lo := pos // invariant: tiles[lo] < tid
	hi := pos + 1 + int(float64(tid-tiles[pos])*density)
	if hi >= n {
		hi = n - 1
	}
	if tiles[hi] < tid {
		lo = hi
		step := 4
		hi = lo + step
		for hi < n && tiles[hi] < tid {
			lo = hi
			step <<= 1
			hi = lo + step
		}
		if hi > n {
			hi = n
		}
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if tiles[mid] < tid {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// indexExactCandidates materializes S_j ∩ B_r(u) from the runs of reps
// collected in cover order: full-tile runs are copied wholesale,
// partial-tile runs are distance-filtered.
func (s *TwoChoice) indexExactCandidates(origin int32, reps, dst []int32) []int32 {
	oy := int(origin) / s.gl
	ox := int(origin) - oy*s.gl
	for _, run := range s.runs {
		span := reps[run.start : run.start+run.n]
		if run.full {
			if s.live == nil {
				dst = append(dst, span...)
				continue
			}
			for _, v := range span {
				if !s.live.Live(int(v)) {
					s.retried = true
					continue
				}
				dst = append(dst, v)
			}
			continue
		}
		for _, v := range span {
			if s.distFrom(ox, oy, v) <= s.cfg.Radius {
				if s.live != nil && !s.live.Live(int(v)) {
					s.retried = true
					continue
				}
				dst = append(dst, v)
			}
		}
	}
	return dst
}

// distFrom computes the hop distance from coordinates (ox, oy) to node v
// arithmetically — one division, no coordinate-table loads, which on
// wide worlds turns a near-certain cache miss into a handful of ALU ops.
// Identical to Grid.Dist by construction.
func (s *TwoChoice) distFrom(ox, oy int, v int32) int {
	vy := int(v) / s.gl
	vx := int(v) - vy*s.gl
	dx := ox - vx
	if dx < 0 {
		dx = -dx
	}
	dy := oy - vy
	if dy < 0 {
		dy = -dy
	}
	if s.torus {
		if w := s.gl - dx; w < dx {
			dx = w
		}
		if w := s.gl - dy; w < dy {
			dy = w
		}
	}
	return dx + dy
}

// served stamps the ladder's outcome: server srv with the hop count
// computed arithmetically (identical to assignmentTo, with no
// coordinate-table loads), or a backhaul at the origin when srv < 0; and
// whether a dead candidate was rejected on the way.
func (s *TwoChoice) served(req Request, srv int32, escalated bool) Assignment {
	if srv < 0 {
		return Assignment{Server: req.Origin, Backhaul: true, Retried: s.retried}
	}
	oy := int(req.Origin) / s.gl
	ox := int(req.Origin) - oy*s.gl
	return Assignment{
		Server:    srv,
		Hops:      int32(s.distFrom(ox, oy, srv)),
		Escalated: escalated,
		Retried:   s.retried,
	}
}

// sampleFromRuns draws the d candidates through the two-stage tile
// sampler: a uniform index into the concatenated runs (equivalently a
// replica-count-weighted tile draw followed by a uniform in-tile pick),
// accepted outright for full tiles and distance-checked for partial
// ones. Every replica in the run union is equally likely per try and
// acceptance keeps exactly the in-ball ones, so accepted draws are
// uniform over S_j ∩ B_r(u). Returns ok=false when the try budget is
// exhausted first (the run union may hold no in-ball replica at all);
// partial progress is discarded, which leaves the fallback's law intact.
func (s *TwoChoice) sampleFromRuns(req Request, reps []int32, total, d int, loads LoadReader, r *rand.Rand) (int32, bool) {
	// Covered tiles overshoot the ball by less than a tile ring, so the
	// acceptance rate is Ω(|ball| / |cover|) ≈ 1/2 whenever the
	// intersection is non-empty; a small per-candidate budget suffices.
	budget := 8*d + 8
	// Accept all d candidates before reading any load: the load vector
	// reads are the trial's cache misses, and issuing them back to back
	// lets them overlap instead of serializing behind each draw.
	if cap(s.seenBuf) < d {
		s.seenBuf = make([]int32, 0, d)
	}
	oy := int(req.Origin) / s.gl
	ox := int(req.Origin) - oy*s.gl
	cand := s.seenBuf[:0]
	// Draw positions in mini-batches and only then read the node ids:
	// the arena reads are this loop's cache misses, and issuing a batch
	// back to back lets them overlap instead of serializing per try.
	var off [4]int32
	var vs [4]int32
	for tries := 0; len(cand) < d; {
		if tries >= budget {
			return -1, false
		}
		// Full-width batches even when one candidate is missing: the
		// surplus accepted draws are discarded (selection is value-
		// independent, so the law stays uniform), and overlapping four
		// arena reads beats serializing refills on low-acceptance files.
		batch := len(off)
		for k := 0; k < batch; k++ {
			w := int32(r.IntN(total))
			i := 0
			for w >= s.runs[i].n {
				w -= s.runs[i].n
				i++
			}
			if s.runs[i].full {
				off[k] = s.runs[i].start + w
			} else {
				off[k] = -(s.runs[i].start + w) - 1 // needs the distance check
			}
		}
		for k := 0; k < batch; k++ {
			o := off[k]
			if o < 0 {
				o = -o - 1
			}
			vs[k] = reps[o]
		}
		for k := 0; k < batch; k++ {
			tries++
			if off[k] < 0 && s.distFrom(ox, oy, vs[k]) > s.cfg.Radius {
				continue
			}
			if s.live != nil && !s.live.Live(int(vs[k])) {
				s.retried = true
				continue
			}
			if len(cand) < d {
				cand = append(cand, vs[k])
			}
		}
	}
	s.seenBuf = cand
	return leastLoaded(cand, loads, r), true
}

// bitExactCandidates materializes S_j ∩ B_r(u) for a dense file by
// enumerating the ball and keeping the bitmap hits — exact, and cheap
// because dense files are the ones whose replica lists are enormous.
func (s *TwoChoice) bitExactCandidates(origin int, bits []uint64, dst []int32) []int32 {
	if s.ball != nil {
		s.ballBuf = s.ball.Append(origin, s.ballBuf[:0])
	} else {
		s.ballBuf = s.g.Ball(origin, s.cfg.Radius, s.ballBuf[:0])
	}
	for _, v := range s.ballBuf {
		if bits[v>>6]&(1<<(uint(v)&63)) != 0 {
			if s.live != nil && !s.live.Live(int(v)) {
				s.retried = true
				continue
			}
			dst = append(dst, v)
		}
	}
	return dst
}

// sampleFromBits draws the d candidates by ball-cell rejection against a
// dense file's node bitmap: a uniform node of B_r(u) (O(1) through the
// ball template) is accepted when its bit is set, which is uniform over
// S_j ∩ B_r(u) with an O(1) membership probe.
// Returns ok=false when the try budget is exhausted (Assign falls
// through to the exact pool; partial progress is discarded).
func (s *TwoChoice) sampleFromBits(req Request, reps []int32, bits []uint64, d int, loads LoadReader, r *rand.Rand) (int32, bool) {
	budget := 6*d*(s.g.N()/(len(reps)+1)+1) + 8
	if cap(s.seenBuf) < d {
		s.seenBuf = make([]int32, 0, d)
	}
	cand := s.seenBuf[:0]
	oy := int(req.Origin) / s.gl
	ox := int(req.Origin) - oy*s.gl
	// Low-acceptance files probe in full-width mini-batches (surplus
	// accepts are discarded; the law stays uniform) so the bitmap word
	// reads — this loop's cache misses — overlap instead of serializing
	// refills; high-acceptance files draw only what they need.
	lowAcceptance := 2*len(reps) < s.g.N()
	var vs [4]int32
	var ws [4]uint64
	for tries := 0; len(cand) < d; {
		if tries >= budget {
			return -1, false
		}
		batch := d - len(cand)
		if batch > len(vs) || lowAcceptance {
			batch = len(vs)
		}
		for k := 0; k < batch; k++ {
			vs[k] = s.ball.NodeAt(ox, oy, r.IntN(s.ballN))
		}
		for k := 0; k < batch; k++ {
			ws[k] = bits[vs[k]>>6]
		}
		for k := 0; k < batch; k++ {
			tries++
			if ws[k]&(1<<(uint(vs[k])&63)) == 0 {
				continue
			}
			if s.live != nil && !s.live.Live(int(vs[k])) {
				s.retried = true
				continue
			}
			if len(cand) < d {
				cand = append(cand, vs[k])
			}
		}
	}
	s.seenBuf = cand
	return leastLoaded(cand, loads, r), true
}

// fold is the running least-loaded candidate, the one picker behind
// every draw: the incumbent, its load (read once) and how many
// candidates tie at that load. A tie replaces the incumbent with
// probability 1/ties (reservoir), so the winner is uniform over the
// minima whatever the draw order; the first candidate draws no word.
type fold struct {
	best       int32
	load, ties int
}

// add folds candidate v in.
func (f *fold) add(v int32, loads LoadReader, r *rand.Rand) {
	lv := loads.Load(int(v))
	switch {
	case f.ties == 0 || lv < f.load:
		f.best, f.load, f.ties = v, lv, 1
	case lv == f.load:
		f.ties++
		if r.IntN(f.ties) == 0 {
			f.best = v
		}
	}
}

// leastLoaded folds every candidate of cand, in order.
func leastLoaded(cand []int32, loads LoadReader, r *rand.Rand) int32 {
	var f fold
	for _, v := range cand {
		f.add(v, loads, r)
	}
	return f.best
}

// drawPool draws d candidates uniformly, with replacement, from pool,
// folding each as it is drawn, and returns the least loaded, or −1 when
// the pool holds no live member. The oracle folds the whole pool in
// order instead, and a one-element pool draws no word. Under a liveness
// mask, draws reject dead picks within a budget of 4d+16 tries. A spent
// budget (its partial fold discarded, which keeps the law uniform over
// the live members) and the oracle filter the pool to its live members
// first.
func (s *TwoChoice) drawPool(pool []int32, d int, loads LoadReader, r *rand.Rand) int32 {
	if s.live != nil {
		if !s.oracle && len(pool) > 1 {
			var f fold
			accepted := 0
			for tries := 0; tries < 4*d+16 && accepted < d; tries++ {
				v := pool[r.IntN(len(pool))]
				if !s.live.Live(int(v)) {
					s.retried = true
					continue
				}
				f.add(v, loads, r)
				accepted++
			}
			if accepted == d {
				return f.best
			}
		}
		s.liveBuf = s.liveBuf[:0]
		for _, v := range pool {
			if s.live.Live(int(v)) {
				s.liveBuf = append(s.liveBuf, v)
			} else {
				s.retried = true
			}
		}
		if pool = s.liveBuf; len(pool) == 0 {
			return -1
		}
	}
	switch {
	case len(pool) == 1:
		return pool[0]
	case s.oracle:
		return leastLoaded(pool, loads, r)
	}
	var f fold
	for range d {
		f.add(pool[r.IntN(len(pool))], loads, r)
	}
	return f.best
}

var _ LivenessAware = (*TwoChoice)(nil)

// NewLeastLoadedOracle builds the oracle baseline: each request goes to
// the least-loaded replica within the radius (full load information —
// the unattainable lower envelope for any sampling strategy; used in
// ablation benches). It reads cfg.Radius and cfg.NoEscalate (an empty
// ball backhauls instead of widening to r = ∞); the sampling fields do
// not apply to a full-information scan. Its ladder skips the fast draws
// and folds every live member of the exact pool, in order.
func NewLeastLoadedOracle(g *grid.Grid, p *cache.Placement, cfg TwoChoiceConfig) *TwoChoice {
	s := NewTwoChoice(g, p, TwoChoiceConfig{Radius: cfg.Radius, NoEscalate: cfg.NoEscalate})
	s.oracle = true
	return s
}
