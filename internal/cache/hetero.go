package cache

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/dist"
)

// This file implements node arrival — the cache layer of the engine's
// HeteroArrival regime. A vacant node (placed empty by SetHetero's
// vacancy mask) joins the network mid-trial: its forward slab is filled
// with a fresh draw from the placement profile, and its sorted file list
// F is then spliced into every derived structure in place. Arrivals are
// the one mutation that grows replica segments (|S_j| is invariant under
// ReplaceReplica and SwapReplicas, which rotate inside a segment), so the
// join shifts the arenas instead: the segments from F[i] up to the next
// file of F move right by i, and u lands in F[i]'s segment. One backward
// pass of block moves does that for the replica CSR, the tile-major
// arena and the capacity-padded tile directory together, in
// O(Σ|S_j| + K) memmove and add work inside the arenas EnableHetero
// budgeted for the worst case. Afterwards every structure equals a
// from-scratch rebuild of the forward map, directory padding included;
// only the numbering of dense-file bitmap blocks may differ (a file
// promoted by a join takes the next free block).

// joinStep is ArriveNode's plan for one file f of the joining node's
// list, computed in pre-join coordinates before anything moves.
type joinStep struct {
	at     int32 // u's offset in f's replica CSR segment (node order)
	tixAt  int32 // u's offset in f's tile-major segment
	split  int32 // f's first directory entry whose run lies after u
	grow   int32 // growth of f's directory capacity, 0 or 1
	newRun bool  // u's tile opens a new directory entry at split
}

// ArriveNode fills vacant node u with up to Cap(u) files drawn from pop
// (the same per-node draw a from-scratch build performs) and splices u
// into the replica CSR, the cached-file list and, when present, the tile
// index. Each file u caches gains a replica: its capacity-padded tile
// directory grows to min(|S_j|, Tiles) entries, and a file reaching the
// dense threshold moves to a bitmap with an empty directory — the layout
// buildTileIndex gives, so post-arrival churn splices have the headroom
// the replaceReplica capacity panic assumes. Allocation-free; the
// Placement and TileIndex pointers returned by the preceding Place stay
// valid because the splice rewrites their backing arrays. It panics
// unless the Placer is hetero- and churn-enabled and node u is currently
// empty.
func (pl *Placer) ArriveNode(u int32, pop dist.Popularity, mode Mode, r *rand.Rand) {
	p := &pl.p
	if !pl.hetero {
		panic("cache: ArriveNode needs EnableHetero")
	}
	if !p.sorted {
		panic("cache: ArriveNode needs a churn-enabled placement (Placer.EnableChurn)")
	}
	if p.lens[u] != 0 {
		panic(fmt.Sprintf("cache: ArriveNode: node %d is not vacant (t=%d)", u, p.lens[u]))
	}
	base, want := p.slabBase(int(u)), p.Cap(int(u))
	ln := 0
	switch mode {
	case WithReplacement:
		span := pl.draws[base : base+want]
		dist.SampleBatch(pop, r, span)
		ln = pl.dedup(base, span)
	case WithoutReplacement:
		ln = pl.drawDistinct(base, want, pop, r)
	default:
		panic(fmt.Sprintf("cache: unknown mode %v", mode))
	}
	pl.setLen(int(u), ln)
	if pl.vacant != nil {
		pl.vacant[u] = false
	}
	pl.join(u)
}

// join splices node u's sorted list F, just written to its slab, into
// the replica CSR, the cached-file list and the tile index.
func (pl *Placer) join(u int32) {
	p := &pl.p
	ix := p.tix
	files := p.nodeSpan(int(u))
	plan := pl.joinPlan[:len(files)]
	promoted := int32(-1) // first file the join moves to a bitmap
	grow := int32(0)      // directory capacity growth over F
	for i, f := range files {
		lo, hi := p.repOff[f], p.repOff[f+1]
		at, _ := slices.BinarySearch(p.nodes[lo:hi], u)
		plan[i] = joinStep{at: lo + int32(at)}
		if ix != nil && ix.planJoin(u, f, &plan[i]) && promoted < 0 {
			promoted = f
		}
		grow += plan[i].grow
	}

	// The backward pass. Step i moves the blocks of files F[i] up to the
	// next file of F: entries before u's slot by i, u's slot and the rest
	// by i+1 — in the directory, spans after F[i] by the capacity growth
	// of F[0..i] and run starts by the node shift.
	k, t := int32(pl.k), int32(len(files))
	hi, next := p.repOff[k], k
	p.nodes = p.nodes[:hi+t]
	var tu, dhi int32
	if ix != nil {
		tu, dhi = ix.tl.TileOf(u), ix.dirOff[k]
		ix.nodes = ix.nodes[:hi+t]
		ix.dirTiles = ix.dirTiles[:dhi+grow]
		ix.dirStart = ix.dirStart[:dhi+grow]
	}
	for i := t - 1; i >= 0; i-- {
		f, s := files[i], &plan[i]
		lo := p.repOff[f]
		insertShifted(p.nodes, lo, s.at, hi, i, u)
		shiftAdd(p.repOff, f+1, next+1, 0, i+1)
		if ix != nil {
			insertShifted(ix.nodes, lo, s.tixAt, hi, i, u)
			ix.moveRuns(ix.dirOff[f+1], dhi, grow, i+1)
			shiftAdd(ix.dirOff, f+1, next+1, 0, grow)
			grow -= s.grow
			base := ix.dirOff[f]
			split, end := base+s.split, base+ix.dirLen[f]
			if s.newRun {
				ix.moveRuns(split, end, grow+1, i+1)
				ix.dirTiles[split+grow] = tu
				ix.dirStart[split+grow] = s.tixAt + i
				ix.dirLen[f]++
			} else {
				ix.moveRuns(split, end, grow, i+1)
			}
			ix.moveRuns(base, split, grow, i)
			dhi = base
		}
		hi, next = lo, f
	}
	if promoted >= 0 {
		ix.dropPromotedSpans(promoted)
	}

	// Files whose |S_f| went 0 → 1 join the cached list — a few per join,
	// each a memmove inside the list's K-entry capacity.
	for _, f := range files {
		if p.ReplicaCount(int(f)) == 1 {
			i, _ := slices.BinarySearch(p.cachedFiles, f)
			p.cachedFiles = slices.Insert(p.cachedFiles, i, f)
		}
	}
}

// insertShifted moves a[lo:at] right by s and a[at:hi] by s+1, writing v
// into the slot between them.
func insertShifted(a []int32, lo, at, hi, s, v int32) {
	copy(a[at+s+1:hi+s+1], a[at:hi])
	copy(a[lo+s:at+s], a[lo:at])
	a[at+s] = v
}

// shiftAdd moves a[lo:hi] right by s ≥ 0 slots, adding add to every
// moved value. Like copy it is safe when source and destination overlap.
func shiftAdd(a []int32, lo, hi, s, add int32) {
	if add == 0 {
		copy(a[lo+s:hi+s], a[lo:hi])
		return
	}
	src, dst := a[lo:hi], a[lo+s:hi+s]
	for x := len(src) - 1; x >= 0; x-- {
		dst[x] = src[x] + add
	}
}

// moveRuns moves directory entries [lo, hi) right by s, adding add to
// their run starts.
func (ix *TileIndex) moveRuns(lo, hi, s, add int32) {
	copy(ix.dirTiles[lo+s:hi+s], ix.dirTiles[lo:hi])
	shiftAdd(ix.dirStart, lo, hi, s, add)
}

// planJoin fills the tile-index half of step s for node u joining file
// f, and reports whether f reaches the dense threshold. A dense file
// only gains u's bit; a promoted file takes the next bitmap block (free
// blocks are clear, see buildTileIndex) and drops its directory entries,
// and its span is compacted away after the backward pass. Either way its
// tile-major segment is scratch, so u is parked at the segment's start.
func (ix *TileIndex) planJoin(u, f int32, s *joinStep) (promoted bool) {
	lo, hi := ix.repOff[f], ix.repOff[f+1]
	s.tixAt = lo
	if b := ix.bitOf[f]; b >= 0 {
		ix.bitWords[int(b)*ix.wordsPer+int(u>>6)] |= 1 << (uint(u) & 63)
		return false
	}
	if hi-lo+1 >= denseBitThreshold(ix.tl.Grid().N()) {
		words := ix.bitWords[ix.blocks*ix.wordsPer : (ix.blocks+1)*ix.wordsPer]
		for _, v := range ix.nodes[lo:hi] {
			words[v>>6] |= 1 << (uint(v) & 63)
		}
		words[u>>6] |= 1 << (uint(u) & 63)
		ix.bitOf[f] = int32(ix.blocks)
		ix.blocks++
		ix.dirLen[f] = 0
		return true
	}
	if hi-lo < int32(ix.tl.Tiles()) {
		s.grow = 1
	}
	base := ix.dirOff[f]
	tiles := ix.dirTiles[base : base+ix.dirLen[f]]
	starts := ix.dirStart[base : base+ix.dirLen[f]]
	d, found := slices.BinarySearch(tiles, ix.tl.TileOf(u))
	// Run d — u's own, or the one u opens in front of it — starts at
	// starts[d], or at the segment end past the last run.
	s.tixAt, s.split, s.newRun = hi, int32(d), !found
	if d < len(starts) {
		s.tixAt = starts[d]
	}
	if found {
		end := hi
		if d+1 < len(starts) {
			end = starts[d+1]
		}
		pos, _ := slices.BinarySearch(ix.nodes[s.tixAt:end], u)
		s.tixAt += int32(pos)
		s.split++
	}
	return false
}

// dropPromotedSpans compacts away the directory spans that files
// promoted to bitmaps (dense, yet still padded) hold from file `from`
// on, restoring buildTileIndex's layout: min(|S_j|, Tiles) entries for
// sparse files, none for dense ones.
func (ix *TileIndex) dropPromotedSpans(from int32) {
	k := int32(len(ix.dirLen))
	cut := int32(0)
	for j := from; j < k; j++ {
		lo := ix.dirOff[j]
		ix.dirOff[j] = lo - cut
		if ix.bitOf[j] >= 0 {
			cut += ix.dirOff[j+1] - lo
			continue
		}
		n := ix.dirLen[j]
		copy(ix.dirTiles[lo-cut:lo-cut+n], ix.dirTiles[lo:lo+n])
		copy(ix.dirStart[lo-cut:lo-cut+n], ix.dirStart[lo:lo+n])
	}
	ix.dirOff[k] -= cut
	ix.dirTiles = ix.dirTiles[:ix.dirOff[k]]
	ix.dirStart = ix.dirStart[:ix.dirOff[k]]
}
