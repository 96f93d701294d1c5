// Package cache implements the paper's cache content placement phase
// (§II-B): every node independently caches M files drawn i.i.d. from the
// popularity profile *with replacement* (proportional placement). The
// package also maintains the inverted replica index used by both request
// assignment strategies, and exposes the structural quantities t(u) and
// t(u,v) from the goodness property (Definition 5, Lemma 2).
//
// Placements live in flat arenas instead of n + K little heap-allocated
// slices: the forward map node → files as one slab of M_u slots per node,
// the inverted index file → replica nodes in CSR (compressed sparse row)
// form with an offset index. Each S_j is stored once, ordered by the key
// (TileOf(v), v) of the placement's tiling — plain node order when the
// placement has no tile index — so the spatial index (TileIndex) is only
// a tile directory and dense-file bitmaps over that one arena. Searches
// of S_j compare the key as one int, the node's rank in the tiling's
// node order (grid.Tiling.Rank).
//
// A build counts each file's replicas while it deduplicates every node's
// draws, sizes the CSR from those counts and fills it in one scatter in
// key order. A churn-enabled build, whose node lists must be sorted,
// takes them from one transpose of that CSR (files visited in ascending
// order) instead of sorting each list. A Placer owns the arenas plus all
// build scratch, so the per-trial placement build of the simulation
// engine is allocation-free after the first trial.
package cache

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/dist"
	"repro/internal/grid"
)

// Mode selects how the M slots of a node are filled.
type Mode int

const (
	// WithReplacement matches the paper: M i.i.d. draws per node, so a
	// node may cache fewer than M *distinct* files (t(u) ≤ M).
	WithReplacement Mode = iota
	// WithoutReplacement is an ablation variant: M distinct files per
	// node, drawn by popularity-weighted sampling without replacement.
	WithoutReplacement
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case WithReplacement:
		return "with-replacement"
	case WithoutReplacement:
		return "without-replacement"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Placement is a cache assignment for n nodes over a K-file library.
// Build one per simulation trial with Place, or — on the hot path —
// through a reusable Placer. Placements are immutable once built, with
// one exception: placements built by a churn-enabled Placer
// (Placer.EnableChurn) additionally support in-place replica migration
// through ReplaceReplica and SwapReplicas, the primitives behind the
// engine's §VI dynamic regime.
type Placement struct {
	n, k, m int

	// Forward map, node → distinct cached files (length t(u) ≤ M_u): node
	// u's list is files[slabBase(u) : slabBase(u)+lens[u]], one slab of
	// Cap(u) slots per node, so the mutation primitives can grow and
	// shrink a list without shifting the arena. Lists are sorted ascending
	// on churn-enabled placements and keep draw order otherwise.
	files []int32
	lens  []int32

	// nodes[repOff[j]:repOff[j+1]] lists the nodes caching file j — S_j in
	// the paper's notation — ascending by key (see find): (TileOf(v), v)
	// under a tile index, v without one. The tile index's directory runs
	// index these segments. Segment lengths are invariant under
	// ReplaceReplica (it migrates replicas, never changes |S_j|), which is
	// what lets the CSR stay splice-able in place.
	nodes  []int32
	repOff []int32 // length k+1

	// cachedFiles lists files with at least one replica, ascending.
	cachedFiles []int32

	// slotFile is SlotReplica's index over the replica arena on
	// churn-enabled placements: the file holding every 16th slot (see
	// indexSlots). It is valid while repOff is unchanged, so it is rebuilt
	// wherever repOff moves — the build and SpliceArrivals — and copied
	// by Clone.
	slotFile []int32

	// caps and capOff carry heterogeneous per-node capacities
	// (Placer.EnableHetero): caps[u] = M_u, and capOff is its prefix sum
	// (length n+1), which replaces the uniform M stride — node u's slab
	// lives at files[capOff[u]:capOff[u]+lens[u]]. Both are nil on
	// homogeneous placements, keeping the u*m arithmetic byte-for-byte
	// untouched.
	caps   []int32
	capOff []int32

	// tix is the optional spatial replica index (see TileIndex), built
	// only by Placers with EnableTiles; its tiling orders every S_j.
	tix *TileIndex

	// sorted marks placements built by a churn-enabled Placer: every node
	// list is sorted (by the build's transpose of the replica CSR), which
	// the in-place splices of ReplaceReplica, SwapReplicas and the
	// arrival splice maintain and rely on.
	sorted bool

	// staged marks nodes staged by Placer.StageArrival and not yet
	// spliced: their forward lists are set, but no replica list holds
	// them.
	staged bool
}

// nodeSpan returns node u's file list.
func (p *Placement) nodeSpan(u int) []int32 {
	base := p.slabBase(u)
	return p.files[base : base+int(p.lens[u])]
}

// Cap returns node u's slot capacity M_u — M on homogeneous placements,
// the per-node capacity installed by Placer.SetHetero otherwise.
func (p *Placement) Cap(u int) int {
	if p.caps == nil {
		return p.m
	}
	return int(p.caps[u])
}

// slabBase returns where node u's forward slab (and draw span) starts:
// the uniform u·M stride, or the capacity prefix under EnableHetero.
func (p *Placement) slabBase(u int) int {
	if p.capOff == nil {
		return u * p.m
	}
	return int(p.capOff[u])
}

// TileIndex returns the spatial replica index, or nil when the placement
// was built without one.
func (p *Placement) TileIndex() *TileIndex { return p.tix }

// Placer builds placements into reusable backing arrays. One Placer
// serves one (n, m, k) shape; each Place call overwrites the arrays of
// the previously returned Placement, so a Placer must only be used when
// at most one placement per Placer is live at a time (the per-worker
// trial loop of the simulation engine). Use the package-level Place for
// an independently-owned placement.
type Placer struct {
	n, m, k int
	p       Placement

	draws   []int32 // flat slot draws (with-replacement batch), slab layout
	counts  []int32 // per-file replica count, then CSR fill cursor
	mark    []uint64
	stamp   uint64
	missing []int32 // fillRemainder's unmarked files, sized K at the first stall

	// Tile-index state (EnableTiles): the geometry and the index arenas.
	tiling *grid.Tiling
	tix    TileIndex

	// Heterogeneity state (EnableHetero/SetHetero): per-trial node
	// capacities up to maxCap and an optional vacancy mask.
	hetero   bool
	maxCap   int
	totalCap int    // Σ caps of the current trial
	vacant   []bool // borrowed per trial; vacant[u] ⇒ u is placed empty

	// Arrival staging (StageArrival/SpliceArrivals), sized once by
	// EnableHetero for arrivalBatch·maxCap inserts: the staged
	// (file, node) inserts and the splice plan over them.
	joins     []int64 // file<<32 | node per staged insert
	joinAt    []int32 // pre-splice slot of joins[x] in the replica CSR
	joinFiles []joinFile
}

// slotCap returns the per-node slab capacity every arena must budget
// for: maxCap under EnableHetero, the uniform M otherwise.
func (pl *Placer) slotCap() int {
	if pl.hetero {
		return pl.maxCap
	}
	return pl.m
}

// vacantAt reports whether node u sits out the current trial's build.
func (pl *Placer) vacantAt(u int) bool { return pl.vacant != nil && pl.vacant[u] }

// EnableHetero prepares the Placer for heterogeneous per-node capacities
// of up to maxCap slots: the draw, forward and replica arenas are
// re-budgeted for the worst case, the arrival plan is sized for
// arrivalBatch full-capacity joiners, and every subsequent Place call must
// be preceded by SetHetero installing that trial's capacity vector. It
// must be called before EnableTiles, which sizes its arenas off the slot
// capacity, and panics otherwise.
func (pl *Placer) EnableHetero(maxCap int) {
	if pl.tiling != nil {
		panic("cache: EnableHetero must precede EnableTiles")
	}
	if maxCap < pl.m {
		panic(fmt.Sprintf("cache: EnableHetero maxCap %d below M=%d", maxCap, pl.m))
	}
	if pl.hetero {
		return
	}
	pl.hetero = true
	pl.maxCap = maxCap
	pl.draws = make([]int32, pl.n*maxCap)
	pl.p.files = make([]int32, pl.n*maxCap)
	pl.p.nodes = make([]int32, pl.n*min(maxCap, pl.k))
	pl.p.capOff = make([]int32, pl.n+1)
	plan := arrivalBatch * maxCap
	pl.joins = make([]int64, 0, plan)
	pl.joinAt = make([]int32, plan)
	pl.joinFiles = make([]joinFile, 0, plan)
}

// SetHetero installs the next trial's per-node capacities (caps[u] = M_u,
// each in [1, maxCap]) and optional vacancy mask. Vacant nodes are
// placed empty; under WithReplacement their batch draws are still
// consumed (the batch is one SampleBatch call), so the placement RNG
// schedule depends only on the capacity vector, not on which nodes are
// vacant. Both slices are borrowed until the next SetHetero call.
func (pl *Placer) SetHetero(caps []int32, vacant []bool) {
	if !pl.hetero {
		panic("cache: SetHetero without EnableHetero")
	}
	if len(caps) != pl.n {
		panic(fmt.Sprintf("cache: SetHetero got %d caps for n=%d nodes", len(caps), pl.n))
	}
	p := &pl.p
	p.caps = caps
	pl.vacant = vacant
	total := int32(0)
	for u, c := range caps {
		if c < 1 || int(c) > pl.maxCap {
			panic(fmt.Sprintf("cache: SetHetero cap %d for node %d outside [1, %d]", c, u, pl.maxCap))
		}
		p.capOff[u] = total
		total += c
	}
	p.capOff[pl.n] = total
	pl.totalCap = int(total)
}

// EnableChurn makes every subsequent Place call build a mutable
// placement: each node's file list is sorted at build time, the order
// ReplaceReplica, SwapReplicas and SpliceArrivals splice in. The build
// rewrites the lists by transposing the finished replica CSR, file by
// ascending file. Sorting is the only difference — the layout is the one
// every placement uses, and the build consumes the RNG exactly as without
// it, so a churn-enabled placement holds the same node sets, replica CSR
// and tile index as its draw-order twin.
func (pl *Placer) EnableChurn() { pl.p.sorted = true }

// NewPlacer returns a Placer for n nodes of m slots over a k-file library.
// It panics on non-positive dimensions (misconfiguration, not runtime
// input).
func NewPlacer(n, m, k int) *Placer {
	if n <= 0 || m <= 0 {
		panic(fmt.Sprintf("cache: need n > 0 and m > 0, got n=%d m=%d", n, m))
	}
	if k <= 0 {
		panic(fmt.Sprintf("cache: need k > 0, got k=%d", k))
	}
	pl := &Placer{
		n: n, m: m, k: k,
		draws:  make([]int32, n*m),
		counts: make([]int32, k),
		mark:   make([]uint64, k),
	}
	pl.p = Placement{
		n: n, k: k, m: m,
		files:       make([]int32, n*m),
		lens:        make([]int32, n),
		nodes:       make([]int32, n*min(m, k)),
		repOff:      make([]int32, k+1),
		cachedFiles: make([]int32, 0, k),
	}
	return pl
}

// Place draws a placement: n nodes, M slots each, files sampled from pop.
// It panics on non-positive n or m (misconfiguration, not runtime input).
func Place(n, m int, pop dist.Popularity, mode Mode, r *rand.Rand) *Placement {
	if n <= 0 || m <= 0 {
		panic(fmt.Sprintf("cache: need n > 0 and m > 0, got n=%d m=%d", n, m))
	}
	// Clone off the Placer so the returned Placement owns its arrays
	// instead of pinning the builder's scratch (draws/marks/counts) for
	// its whole lifetime.
	return NewPlacer(n, m, pop.K()).Place(pop, mode, r).Clone()
}

// Place draws a placement into the Placer's backing arrays, invalidating
// any previously returned Placement. The RNG is consumed in exactly the
// same order as the original one-slice-per-node build, so results are bit
// identical for identical (pop, mode, r) histories.
func (pl *Placer) Place(pop dist.Popularity, mode Mode, r *rand.Rand) *Placement {
	if pop.K() != pl.k {
		panic(fmt.Sprintf("cache: placer built for k=%d, profile has k=%d", pl.k, pop.K()))
	}
	if pl.hetero && pl.totalCap == 0 {
		panic("cache: Place with EnableHetero needs SetHetero first")
	}
	p := &pl.p
	if p.staged {
		panic("cache: Place with staged arrivals (call SpliceArrivals first)")
	}
	clear(pl.counts)
	switch mode {
	case WithReplacement:
		// Batched sampling: all slot draws (n·M, or Σ M_u under
		// EnableHetero) in one call — identical RNG consumption to
		// per-slot draws, see dist.BatchSampler — then a counting dedup
		// per node via stamped marks; no per-node sort input copy, no map.
		// The draw arena shares the slab layout (slabBase/Cap), so on the
		// homogeneous path the spans below are exactly the historical
		// u·M strides.
		total := pl.n * pl.m
		if pl.hetero {
			total = pl.totalCap
		}
		dist.SampleBatch(pop, r, pl.draws[:total])
		for u := 0; u < pl.n; u++ {
			ln := 0
			if !pl.vacantAt(u) {
				base := p.slabBase(u)
				ln = pl.dedup(base, pl.draws[base:base+p.Cap(u)])
			}
			p.lens[u] = int32(ln)
		}
	case WithoutReplacement:
		for u := 0; u < pl.n; u++ {
			ln := 0
			if !pl.vacantAt(u) {
				// Vacant nodes are placed empty with no draws consumed
				// (per-node rejection sampling has no batch to burn).
				ln = pl.drawDistinct(p.slabBase(u), p.Cap(u), pop, r)
			}
			p.lens[u] = int32(ln)
		}
	default:
		panic(fmt.Sprintf("cache: unknown mode %v", mode))
	}

	pl.buildIndex()
	return p
}

// dedup writes the distinct files of draws, in first-draw order, into
// the slab at base, counts each one in counts, and returns their count.
func (pl *Placer) dedup(base int, draws []int32) int {
	files := pl.p.files[base:]
	pl.stamp++
	ln := 0
	for _, f := range draws {
		if pl.mark[f] != pl.stamp {
			pl.mark[f] = pl.stamp
			pl.counts[f]++
			files[ln] = f
			ln++
		}
	}
	return ln
}

// drawDistinct fills the slab at base with want distinct files, counts
// each one in counts, and returns the list length. The
// popularity-weighted rejection loop is fast while want ≪ K (the paper's
// M ≪ K standing assumption); a marked sweep completes the draw when
// rejection stalls, and want ≥ K caches the whole library.
func (pl *Placer) drawDistinct(base, want int, pop dist.Popularity, r *rand.Rand) int {
	files := pl.p.files[base:]
	if want >= pl.k {
		for j := range pl.k {
			files[j] = int32(j)
			pl.counts[j]++
		}
		return pl.k
	}
	pl.stamp++
	ln, tries := 0, 0
	for ln < want {
		f := int32(pop.Sample(r))
		if pl.mark[f] != pl.stamp {
			pl.mark[f] = pl.stamp
			pl.counts[f]++
			files[ln] = f
			ln++
		}
		tries++
		if tries > 64*want && ln < want {
			return pl.fillRemainder(files, ln, want, r)
		}
	}
	return ln
}

// fillRemainder completes a without-replacement draw uniformly over the
// unmarked files when popularity rejection stalls (extremely skewed
// Zipf), appending to files[:ln] and counting each file it adds. Returns
// the completed length. The unmarked files go to the Placer's missing
// scratch, so a stall allocates only the first time.
func (pl *Placer) fillRemainder(files []int32, ln, want int, r *rand.Rand) int {
	if pl.missing == nil {
		pl.missing = make([]int32, 0, pl.k)
	}
	missing := pl.missing[:0]
	for j := int32(0); j < int32(pl.k); j++ {
		if pl.mark[j] != pl.stamp {
			missing = append(missing, j)
		}
	}
	for ln < want && len(missing) > 0 {
		i := r.IntN(len(missing))
		files[ln] = missing[i]
		pl.counts[missing[i]]++
		ln++
		missing[i] = missing[len(missing)-1]
		missing = missing[:len(missing)-1]
	}
	return ln
}

// buildIndex fills the replica CSR — and, under EnableTiles, the tile
// index — from the node lists just drawn and the replica counts their
// draws left in counts: the counts size every S_j, and one scatter in
// key order fills them, tile by tile through the tiling's node order
// (ascending inside a tile) or node by node without a tiling, which
// leaves each S_j sorted by key whatever the order of the node lists.
// A churn-enabled placement then takes its sorted node lists from the
// CSR (see transpose).
func (pl *Placer) buildIndex() {
	p := &pl.p
	total := int32(0)
	p.cachedFiles = p.cachedFiles[:0]
	for j := 0; j < pl.k; j++ {
		if pl.counts[j] > 0 {
			p.cachedFiles = append(p.cachedFiles, int32(j))
		}
		p.repOff[j] = total
		total += pl.counts[j]
		pl.counts[j] = p.repOff[j] // reuse as fill cursor
	}
	p.repOff[pl.k] = total
	p.nodes = p.nodes[:total]
	if pl.tiling == nil {
		p.tix = nil
		for u := int32(0); u < int32(pl.n); u++ {
			pl.scatter(u)
		}
	} else {
		for _, u := range pl.tiling.Order() {
			pl.scatter(u)
		}
		pl.buildTileIndex()
	}
	if p.sorted {
		pl.transpose()
		p.indexSlots()
	}
}

// transpose rewrites every node list from the replica CSR, visiting the
// cached files in ascending order, so each list comes out sorted: the
// order a churn-enabled placement keeps, in one pass over Σ|S_j| instead
// of one sort per node.
func (pl *Placer) transpose() {
	p := &pl.p
	clear(p.lens)
	for _, j := range p.cachedFiles {
		for _, v := range p.Replicas(int(j)) {
			p.files[p.slabBase(int(v))+int(p.lens[v])] = j
			p.lens[v]++
		}
	}
}

// scatter appends node u to the replica segment of every file it caches.
func (pl *Placer) scatter(u int32) {
	p := &pl.p
	for _, f := range p.nodeSpan(int(u)) {
		p.nodes[pl.counts[f]] = u
		pl.counts[f]++
	}
}

// N returns the number of nodes.
func (p *Placement) N() int { return p.n }

// K returns the library size.
func (p *Placement) K() int { return p.k }

// M returns the per-node slot count.
func (p *Placement) M() int { return p.m }

// Replicas returns S_j, the nodes caching file j, in key order: sorted by
// (TileOf(v), v) on a placement with a tile index, so each tile's
// replicas form one run (see TileIndex.FileRuns), and by node id on a
// placement without one. The caller must not mutate the returned slice.
func (p *Placement) Replicas(j int) []int32 { return p.nodes[p.repOff[j]:p.repOff[j+1]] }

// find binary-searches the key-ordered segment seg for node v and
// returns its slot, or the slot v would be inserted at, and whether v is
// there. The key is (TileOf(v), v) under a tile index, compared as the
// tiling's rank of v (one int per probe), and v without one.
func (p *Placement) find(seg []int32, v int32) (int, bool) {
	if p.tix == nil {
		return slices.BinarySearch(seg, v)
	}
	tl := p.tix.tl
	rv := tl.Rank(v)
	lo, hi := 0, len(seg)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tl.Rank(seg[mid]) < rv {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(seg) && seg[lo] == v
}

// key returns node v's sort key in S_j as one int: its tiling rank under
// a tile index, v without one (see find).
func (p *Placement) key(v int32) int32 {
	if p.tix == nil {
		return v
	}
	return p.tix.tl.Rank(v)
}

// NodeFiles returns the distinct files cached at node u: sorted ascending
// on churn-enabled placements (Placer.EnableChurn), in draw order
// otherwise. The caller must not mutate the returned slice, and on
// churn-enabled placements the slice is only valid until the next
// mutation.
func (p *Placement) NodeFiles(u int) []int32 { return p.nodeSpan(u) }

// Has reports whether node u caches file j, whatever the order of u's
// list: a scan of the list while it holds at most 32 files (t(u) ≤ M,
// typically a few dozen at most), a binary search for u's key
// (TileOf(u), u) — u itself when untiled — in S_j beyond. It is the
// per-node lookup of the ball-side scans (the exact candidate filter,
// nearest-replica rings) and of the churn engine's feasibility checks.
func (p *Placement) Has(u, j int) bool {
	files := p.nodeSpan(u)
	if len(files) <= 32 {
		return slices.Contains(files, int32(j))
	}
	_, ok := p.find(p.Replicas(j), int32(u))
	return ok
}

// T returns t(u), the number of distinct files cached at node u.
func (p *Placement) T(u int) int { return int(p.lens[u]) }

// TPair returns t(u,v) = |T(u,v)|, the number of distinct files cached at
// both u and v: v's key is binary-searched in the S_j of each of u's
// files, so the count holds whatever the order of the node lists.
func (p *Placement) TPair(u, v int) int {
	t := 0
	for _, f := range p.nodeSpan(u) {
		if _, ok := p.find(p.Replicas(int(f)), int32(v)); ok {
			t++
		}
	}
	return t
}

// CachedFiles returns the sorted list of files with at least one replica
// anywhere in the network. The caller must not mutate the returned slice.
func (p *Placement) CachedFiles() []int32 { return p.cachedFiles }

// UncachedCount returns the number of library files with zero replicas.
// Non-zero values trigger the miss policies discussed in DESIGN.md §4.4.
func (p *Placement) UncachedCount() int { return p.k - len(p.cachedFiles) }

// Goodness summarizes Definition 5: the placement is (δ, µ)-good when
// every node has t(u) ≥ δM and every sampled pair has t(u,v) < µ.
type Goodness struct {
	MinT     int     // min_u t(u)
	MeanT    float64 // average t(u)
	MaxPairT int     // max t(u,v) over the sampled pairs
	Pairs    int     // number of pairs inspected
}

// IsGood reports whether the summary satisfies the (δ, µ) thresholds.
func (g Goodness) IsGood(delta float64, mu int, m int) bool {
	return float64(g.MinT) >= delta*float64(m) && g.MaxPairT < mu
}

// CheckGoodness computes the goodness summary. Exhaustive pair checking is
// Θ(n²); pairSamples > 0 bounds the work by sampling random pairs instead
// (0 means exhaustive, which is fine for n ≤ a few thousand).
func (p *Placement) CheckGoodness(pairSamples int, r *rand.Rand) Goodness {
	g := Goodness{MinT: p.T(0)}
	sum := 0
	for u := 0; u < p.n; u++ {
		t := p.T(u)
		sum += t
		g.MinT = min(g.MinT, t)
	}
	g.MeanT = float64(sum) / float64(p.n)
	if pairSamples <= 0 {
		for u := 0; u < p.n; u++ {
			for v := u + 1; v < p.n; v++ {
				if t := p.TPair(u, v); t > g.MaxPairT {
					g.MaxPairT = t
				}
				g.Pairs++
			}
		}
		return g
	}
	for i := 0; i < pairSamples; i++ {
		u := r.IntN(p.n)
		v := r.IntN(p.n)
		if u == v {
			continue
		}
		if t := p.TPair(u, v); t > g.MaxPairT {
			g.MaxPairT = t
		}
		g.Pairs++
	}
	return g
}

// ReplicaCount returns |S_j| without materializing the slice header.
func (p *Placement) ReplicaCount(j int) int { return int(p.repOff[j+1] - p.repOff[j]) }
