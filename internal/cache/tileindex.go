package cache

import "repro/internal/grid"

// TileIndex is the spatial replica index: every file's replica list
// re-ordered tile-major (by grid.Tiling tile id, node ids ascending
// inside a tile) plus a sparse per-file tile directory, so the radius-
// bounded strategies can enumerate S_j ∩ B_r(u) by walking only the
// tiles overlapping B_r(u) instead of the whole replica list or ball.
//
// Layout, mirroring the Placement CSR:
//
//	nodes[repOff[j]:repOff[j+1]]   — S_j re-ordered tile-major
//	dirTiles[dirOff[j]:dirOff[j+1]] — the distinct tiles holding replicas
//	                                  of j, ascending
//	dirStart[d]                    — offset into nodes of directory entry
//	                                  d's run; the run ends at the next
//	                                  entry's start (or the segment end)
//
// A TileIndex is built into reusable arenas by its Placer and is
// invalidated, like the Placement that carries it, by the next Place
// call on that Placer. On churn-enabled builds (Placer.EnableChurn) the
// index is additionally maintained incrementally: every
// Placement.ReplaceReplica splices the affected tile run, directory and
// bitmap in place (see churn.go), and every Placer.SpliceArrivals
// splices a batch of joining nodes into each of their files (see
// hetero.go), so readers always observe a state identical to a
// from-scratch rebuild of the mutated placement, up to the numbering of
// bitmap blocks.
//
// The directory is capacity-padded: dirOff pads file j's span to
// min(|S_j|, Tiles) entries — the most it can ever occupy while |S_j| is
// invariant — and dirLen holds the entries in use, so a splice inserts
// and removes entries by memmove inside the file's own span; a join,
// which grows |S_j|, widens the span by the same rule. Σ capacities
// ≤ Σ|S_j| keeps the padded directory inside the replica arena's budget.
type TileIndex struct {
	tl       *grid.Tiling
	repOff   []int32 // borrowed from the Placement (length k+1)
	nodes    []int32
	dirTiles []int32
	dirStart []int32
	dirOff   []int32 // length k+1, padded to per-file capacity
	dirLen   []int32 // per-file directory entries in use

	// Dense-file bitmaps: files with |S_j| ≥ n/8 (at most 8M of them,
	// since Σ|S_j| ≤ nM) get a node bitmap, so the strategies can sample
	// them by ball-cell rejection — O(1) membership, acceptance ≥ 1/8 —
	// instead of walking tile runs. Under Zipf request skew these few
	// files carry half the stream.
	bitWords []uint64 // block arena: one n-bit map per dense file
	bitOf    []int32  // per file: block index, or -1
	wordsPer int
	blocks   int // blocks handed out this placement

	entryTile []int32 // build scratch: tile of each nodes[] entry
}

// denseBitThreshold returns the replica count from which a file gets a
// bitmap: an eighth of the nodes.
func denseBitThreshold(n int) int32 { return int32((n + 7) / 8) }

// Tiling returns the tile geometry the index buckets by.
func (ix *TileIndex) Tiling() *grid.Tiling { return ix.tl }

// Nodes returns the tile-major replica arena; FileRuns offsets index
// into it. The caller must not mutate it.
func (ix *TileIndex) Nodes() []int32 { return ix.nodes }

// Replicas returns S_j in tile-major order (a permutation of
// Placement.Replicas(j)) for files below the dense threshold. Dense
// files (FileBits != nil) carry no tile-major list — their segment is
// stale scratch; query them through the bitmap. The caller must not
// mutate the returned slice.
func (ix *TileIndex) Replicas(j int) []int32 { return ix.nodes[ix.repOff[j]:ix.repOff[j+1]] }

// FileRuns returns file j's tile directory: tiles[d] holds replicas
// nodes[starts[d]:end(d)] where end(d) is starts[d+1] for all but the
// last entry, and segEnd for the last. Both slices are empty for files
// with no replicas (and for dense bitmap files). The caller must not
// mutate them.
func (ix *TileIndex) FileRuns(j int) (tiles, starts []int32, segEnd int32) {
	lo := ix.dirOff[j]
	hi := lo + ix.dirLen[j]
	return ix.dirTiles[lo:hi], ix.dirStart[lo:hi], ix.repOff[j+1]
}

// FileBits returns file j's node bitmap (bit u set ⇔ u ∈ S_j), or nil
// when j is below the dense threshold. The caller must not mutate it.
func (ix *TileIndex) FileBits(j int) []uint64 {
	b := ix.bitOf[j]
	if b < 0 {
		return nil
	}
	return ix.bitWords[int(b)*ix.wordsPer : (int(b)+1)*ix.wordsPer]
}

// EnableTiles makes every subsequent Place call additionally build a
// TileIndex over tl into reusable arenas, attached to the returned
// Placement. The tiling must cover the same node count as the Placer.
func (pl *Placer) EnableTiles(tl *grid.Tiling) {
	if tl.Grid().N() != pl.n {
		panic("cache: tiling and placer disagree on node count")
	}
	if pl.tiling == tl {
		return
	}
	pl.tiling = tl
	arena := pl.n * min(pl.slotCap(), pl.k)
	wordsPer := (pl.n + 63) / 64
	// Σ|S_j| ≤ n·slotCap bounds files above n/8 (slotCap = M, or the
	// heterogeneous maxCap under EnableHetero).
	maxDense := min(8*pl.slotCap(), pl.k)
	pl.tix = TileIndex{
		tl:        tl,
		nodes:     make([]int32, arena),
		entryTile: make([]int32, arena),
		dirTiles:  make([]int32, 0, arena),
		dirStart:  make([]int32, 0, arena),
		dirOff:    make([]int32, pl.k+1),
		dirLen:    make([]int32, pl.k),
		bitWords:  make([]uint64, maxDense*wordsPer),
		bitOf:     make([]int32, pl.k),
		wordsPer:  wordsPer,
	}
}

// buildTileIndex fills the index arenas for the placement just built.
// Dense files get node bitmaps (sampled by ball-cell rejection, so they
// need no tile runs and are skipped by the scatter); every other file's
// replicas are scattered tile-major through per-file cursors (each
// segment comes out sorted by tile for free, exactly like the replica
// index scatter sorts by node), then each segment is walked once to emit
// its directory runs into the file's padded span. All passes are O(n·M).
func (pl *Placer) buildTileIndex() {
	p, ix := &pl.p, &pl.tix

	// Dense-file bitmaps first — the scatter consults them. Clear only
	// the blocks the previous placement used (its joins' promotions
	// included), which leaves every free block clear for the next
	// promotion; the block count cannot exceed the arena by the
	// Σ|S_j| ≤ nM argument.
	clear(ix.bitWords[:ix.blocks*ix.wordsPer])
	ix.blocks = 0
	thresh := denseBitThreshold(pl.n)
	for j := range ix.bitOf {
		ix.bitOf[j] = -1
	}
	for _, j := range p.cachedFiles {
		if p.repOff[j+1]-p.repOff[j] < thresh {
			continue
		}
		words := ix.bitWords[ix.blocks*ix.wordsPer : (ix.blocks+1)*ix.wordsPer]
		for _, u := range p.nodes[p.repOff[j]:p.repOff[j+1]] {
			words[u>>6] |= 1 << (uint(u) & 63)
		}
		ix.bitOf[j] = int32(ix.blocks)
		ix.blocks++
	}

	ix.repOff = p.repOff
	copy(pl.counts, p.repOff[:pl.k]) // reuse counts as fill cursors
	ix.nodes = ix.nodes[:len(p.nodes)]
	ix.entryTile = ix.entryTile[:len(p.nodes)]
	// Iterating tiles through the order index makes each entry's tile id
	// free (no per-node lookup or division); recording it alongside the
	// scatter lets the directory walk below read tiles sequentially.
	order, orderOff := pl.tiling.Order(), pl.tiling.OrderOff()
	for tid := int32(0); tid < int32(pl.tiling.Tiles()); tid++ {
		for _, u := range order[orderOff[tid]:orderOff[tid+1]] {
			for _, f := range p.nodeSpan(int(u)) {
				if ix.bitOf[f] >= 0 {
					continue // dense: served by the bitmap, no runs needed
				}
				ix.nodes[pl.counts[f]] = u
				ix.entryTile[pl.counts[f]] = tid
				pl.counts[f]++
			}
		}
	}

	// Directory: pad each sparse file's span to min(|S_j|, Tiles); dense
	// files get an empty span by design.
	maxTiles := int32(pl.tiling.Tiles())
	total := int32(0)
	for j := 0; j < pl.k; j++ {
		ix.dirOff[j] = total
		if ix.bitOf[j] < 0 {
			total += min(p.repOff[j+1]-p.repOff[j], maxTiles)
		}
	}
	ix.dirOff[pl.k] = total
	ix.dirTiles = ix.dirTiles[:total]
	ix.dirStart = ix.dirStart[:total]
	for j := 0; j < pl.k; j++ {
		ln := int32(0)
		if ix.bitOf[j] < 0 {
			base := ix.dirOff[j]
			last := int32(-1)
			for i := p.repOff[j]; i < p.repOff[j+1]; i++ {
				if tid := ix.entryTile[i]; tid != last {
					ix.dirTiles[base+ln] = tid
					ix.dirStart[base+ln] = i
					ln++
					last = tid
				}
			}
		}
		ix.dirLen[j] = ln
	}
	p.tix = ix
}
