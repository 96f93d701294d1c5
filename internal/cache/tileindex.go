package cache

import "repro/internal/grid"

// TileIndex is the spatial replica index: a sparse per-file tile
// directory over the placement's replica arena, plus node bitmaps for
// dense files, so the radius-bounded strategies can enumerate
// S_j ∩ B_r(u) by walking only the tiles overlapping B_r(u) instead of
// the whole replica list or ball. It holds no replica list of its own:
// a tile-indexed placement keeps each S_j ordered by (TileOf(v), v) (see
// Placement.Replicas), so each tile's replicas of j form one run of it.
//
// Layout, over the Placement CSR:
//
//	dirTiles[dirOff[j]:dirOff[j]+dirLen[j]] — the distinct tiles holding
//	                                          replicas of j, ascending
//	dirStart[d]                             — where directory entry d's run
//	                                          starts in Replicas(j); it ends
//	                                          at the next entry's start (or
//	                                          at |S_j|)
//
// A TileIndex is built into reusable arenas by its Placer and is
// invalidated, like the Placement that carries it, by the next Place
// call on that Placer. On churn-enabled builds (Placer.EnableChurn) the
// index is additionally maintained incrementally: every
// Placement.ReplaceReplica fixes up the directory or bitmap around its
// one rotation of S_j (see churn.go), and every Placer.SpliceArrivals
// merges a batch of joining nodes into each of their files' runs (see
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
	dirTiles []int32
	dirStart []int32
	dirOff   []int32 // length k+1, padded to per-file capacity
	dirLen   []int32 // per-file directory entries in use

	// Dense-file bitmaps: files with |S_j| ≥ n/8 (at most 8M of them,
	// since Σ|S_j| ≤ nM) get a node bitmap and an empty directory, so the
	// strategies can sample them by ball-cell rejection — O(1)
	// membership, acceptance ≥ 1/8 — instead of walking tile runs. Under
	// Zipf request skew these few files carry half the stream.
	bitWords []uint64 // block arena: one n-bit map per dense file
	bitOf    []int32  // per file: block index, or -1
	wordsPer int
	blocks   int // blocks handed out this placement
}

// denseBitThreshold returns the replica count from which a file gets a
// bitmap: an eighth of the nodes.
func denseBitThreshold(n int) int32 { return int32((n + 7) / 8) }

// Tiling returns the tile geometry the index buckets by.
func (ix *TileIndex) Tiling() *grid.Tiling { return ix.tl }

// FileRuns returns file j's tile directory: tiles[d] holds the replicas
// Replicas(j)[starts[d]:end(d)], where end(d) is starts[d+1] for all but
// the last entry and |S_j| for the last. Both slices are empty for files
// with no replicas (and for dense bitmap files). The caller must not
// mutate them.
func (ix *TileIndex) FileRuns(j int) (tiles, starts []int32) {
	lo := ix.dirOff[j]
	hi := lo + ix.dirLen[j]
	return ix.dirTiles[lo:hi], ix.dirStart[lo:hi]
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

// EnableTiles makes every subsequent Place call order each S_j by
// (TileOf(v), v) and build a TileIndex over tl into reusable arenas,
// attached to the returned Placement. The tiling must cover the same node
// count as the Placer.
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
		tl:       tl,
		dirTiles: make([]int32, 0, arena),
		dirStart: make([]int32, 0, arena),
		dirOff:   make([]int32, pl.k+1),
		dirLen:   make([]int32, pl.k),
		bitWords: make([]uint64, maxDense*wordsPer),
		bitOf:    make([]int32, pl.k),
		wordsPer: wordsPer,
	}
}

// buildTileIndex builds the index over the key-ordered S_j buildIndex
// just scattered, in one pass over the files: a dense file gets a node
// bitmap (sampled by ball-cell rejection, so it needs no tile runs) and
// an empty directory; every other file's segment is walked once to emit
// one directory run per tile into the file's span, padded to
// min(|S_j|, Tiles). O(Σ|S_j| + K).
func (pl *Placer) buildTileIndex() {
	p, ix := &pl.p, &pl.tix
	// Clear only the blocks the previous placement used (its joins'
	// promotions included), which leaves every free block clear for the
	// next promotion; the block count cannot exceed the arena by the
	// Σ|S_j| ≤ nM argument.
	clear(ix.bitWords[:ix.blocks*ix.wordsPer])
	ix.blocks = 0
	thresh := denseBitThreshold(pl.n)
	maxTiles := int32(pl.tiling.Tiles())
	ix.dirTiles = ix.dirTiles[:cap(ix.dirTiles)]
	ix.dirStart = ix.dirStart[:cap(ix.dirStart)]
	total := int32(0)
	for j := 0; j < pl.k; j++ {
		seg := p.Replicas(j)
		ix.dirOff[j] = total
		ix.dirLen[j] = 0
		ix.bitOf[j] = -1
		if int32(len(seg)) >= thresh {
			words := ix.bitWords[ix.blocks*ix.wordsPer : (ix.blocks+1)*ix.wordsPer]
			for _, u := range seg {
				words[u>>6] |= 1 << (uint(u) & 63)
			}
			ix.bitOf[j] = int32(ix.blocks)
			ix.blocks++
			continue
		}
		ln, last := total, int32(-1)
		for i, u := range seg {
			if tid := pl.tiling.TileOf(u); tid != last {
				ix.dirTiles[ln] = tid
				ix.dirStart[ln] = int32(i)
				ln++
				last = tid
			}
		}
		ix.dirLen[j] = ln - total
		total += min(int32(len(seg)), maxTiles)
	}
	ix.dirOff[pl.k] = total
	ix.dirTiles = ix.dirTiles[:total]
	ix.dirStart = ix.dirStart[:total]
	p.tix = ix
}
