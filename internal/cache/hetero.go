package cache

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/dist"
)

// This file implements node arrival — the cache layer of the engine's
// HeteroArrival regime. A vacant node (placed empty by SetHetero's
// vacancy mask) joins the network mid-trial in two halves. StageArrival
// fills its forward slab with a fresh draw from the placement profile
// and stages one (file, node) insert per file it caches; SpliceArrivals
// then splices every staged insert into the derived structures in
// place, once per batch of joiners. Arrivals are the one mutation that
// grows replica segments (|S_j| is invariant under ReplaceReplica and
// SwapReplicas, which rotate inside a segment), so the splice shifts
// the arenas instead: with the inserts merged by file, each file that
// gains c_f replicas, and every file up to the next such file, moves
// right by the inserts of the files before it, and the new replicas
// land at their sorted slots. One backward pass of block moves does
// that for the replica CSR, the tile-major arena and the
// capacity-padded tile directory together, in O(Σ|S_j| + K) memmove and
// add work per batch, however many nodes it holds, inside the arenas
// EnableHetero budgeted for the worst case. Afterwards every structure
// equals a from-scratch rebuild of the forward map, directory padding
// included; only the numbering of dense-file bitmap blocks may differ (a
// file promoted by a join takes the next free block).

// arrivalBatch is the number of full-capacity joiners the splice plan
// holds: StageArrival splices the staged batch early when the next
// node's inserts would overflow it. Splitting a batch changes no
// structure (the splice is exact whatever the batch) and no draw (the
// splice consumes no randomness), so the bound only caps the plan at
// arrivalBatch·maxCap inserts rather than one per slot of the world.
const arrivalBatch = 32

// joinFile is SpliceArrivals' plan for one file f gaining replicas,
// computed in pre-splice coordinates before anything moves. Its inserts
// are the staged entries from the previous joinFile's end up to end.
type joinFile struct {
	f       int32
	end     int32 // one past f's last insert
	grow    int32 // growth of f's directory capacity
	newRuns int32 // tiles the batch adds to f's directory
	fresh   bool  // f had no replica before the batch
}

// StageArrival fills vacant node u with up to Cap(u) files drawn from
// pop — the same per-node draw a from-scratch build performs, consuming
// r exactly as it does — and stages u's inserts for the next
// SpliceArrivals. Until then u's forward list is set but u is in no
// replica list, and Place, ReplaceReplica and SwapReplicas panic.
// Staging a node whose inserts would overflow the plan first splices
// the nodes already staged. Allocation-free. It panics unless the
// Placer is hetero- and churn-enabled and node u is currently empty.
func (pl *Placer) StageArrival(u int32, pop dist.Popularity, mode Mode, r *rand.Rand) {
	p := &pl.p
	if !pl.hetero {
		panic("cache: StageArrival needs EnableHetero")
	}
	if !p.sorted {
		panic("cache: StageArrival needs a churn-enabled placement (Placer.EnableChurn)")
	}
	if p.lens[u] != 0 {
		panic(fmt.Sprintf("cache: StageArrival: node %d is not vacant (t=%d)", u, p.lens[u]))
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
	if len(pl.joins)+ln > cap(pl.joins) {
		pl.SpliceArrivals()
	}
	for _, f := range p.nodeSpan(int(u)) {
		pl.joins = append(pl.joins, int64(f)<<32|int64(u))
	}
	p.staged = true
}

// SpliceArrivals splices every staged node into the replica CSR, the
// cached-file list and, when present, the tile index: one plan pass and
// one backward pass, whatever the number of nodes staged. Each file the
// batch touches gains its replicas at their sorted slots, and its
// capacity-padded tile directory grows to min(|S_j|, Tiles) entries —
// joiners in one tile share a run, and a new tile opens one entry. A
// file reaching the dense threshold moves to a bitmap with an empty
// directory, the layout buildTileIndex gives, so post-arrival churn
// splices have the headroom the replaceReplica capacity panic assumes.
// Allocation-free; the Placement and TileIndex pointers returned by the
// preceding Place stay valid because the splice rewrites their backing
// arrays. With nothing staged it does nothing.
func (pl *Placer) SpliceArrivals() {
	p := &pl.p
	p.staged = false
	if len(pl.joins) == 0 {
		return
	}
	joins := pl.joins
	slices.Sort(joins) // (file, node) order
	ix := p.tix

	// The plan: group the inserts by file and find each one's slot in
	// the file's node-sorted and tile-major segments.
	plan := pl.joinFiles[:0]
	promoted := int32(-1) // first file the batch moves to a bitmap
	grow, fresh := int32(0), 0
	for s := 0; s < len(joins); {
		f := int32(joins[s] >> 32)
		e := s + 1
		for e < len(joins) && int32(joins[e]>>32) == f {
			e++
		}
		lo, hi := p.repOff[f], p.repOff[f+1]
		at := lo
		for x := s; x < e; x++ {
			i, _ := slices.BinarySearch(p.nodes[at:hi], int32(joins[x]))
			at += int32(i)
			pl.joinAt[x] = at
		}
		jf := joinFile{f: f, end: int32(e), fresh: lo == hi}
		if ix != nil && ix.planJoins(&jf, joins[s:e], pl.tixJoins[s:e], pl.tixAt[s:e]) && promoted < 0 {
			promoted = f
		}
		if jf.fresh {
			fresh++
		}
		grow += jf.grow
		plan = append(plan, jf)
		s = e
	}

	// The backward pass. File f's block — its segment and those of the
	// files up to the next planned one — moves right by the inserts of
	// the files before f, and f's replicas land at their slots; in the
	// directory, spans after f move by the capacity growth up to f, and
	// run starts by the node shift.
	k, total := int32(pl.k), int32(len(joins))
	hi, next := p.repOff[k], k
	p.nodes = p.nodes[:hi+total]
	var dhi int32
	if ix != nil {
		dhi = ix.dirOff[k]
		ix.nodes = ix.nodes[:hi+total]
		ix.dirTiles = ix.dirTiles[:dhi+grow]
		ix.dirStart = ix.dirStart[:dhi+grow]
	}
	for i := len(plan) - 1; i >= 0; i-- {
		jf := &plan[i]
		s := int32(0)
		if i > 0 {
			s = plan[i-1].end
		}
		f, e, before := jf.f, jf.end, total-(jf.end-s)
		lo := p.repOff[f]
		spliceBlock(p.nodes, lo, hi, before, pl.joinAt[s:e], joins[s:e])
		shiftAdd(p.repOff, f+1, next+1, 0, total)
		if ix != nil {
			spliceBlock(ix.nodes, lo, hi, before, pl.tixAt[s:e], pl.tixJoins[s:e])
			ix.moveRuns(ix.dirOff[f+1], dhi, grow, total)
			shiftAdd(ix.dirOff, f+1, next+1, 0, grow)
			grow -= jf.grow
			dhi = ix.dirOff[f]
			if ix.bitOf[f] < 0 {
				ix.mergeRuns(f, grow, before, jf.newRuns, pl.tixAt[s:e], pl.tixJoins[s:e])
			}
		}
		total = before
		hi, next = lo, f
	}
	if promoted >= 0 {
		ix.dropPromotedSpans(promoted)
	}

	// Files whose |S_f| went from 0 join the cached list: one backward
	// merge inside the list's K-entry capacity.
	cached := p.cachedFiles[:len(p.cachedFiles)+fresh]
	r, w := len(p.cachedFiles)-1, len(cached)-1
	for i := len(plan) - 1; i >= 0 && w > r; i-- {
		if !plan[i].fresh {
			continue
		}
		for f := plan[i].f; r >= 0 && cached[r] > f; r, w = r-1, w-1 {
			cached[w] = cached[r]
		}
		cached[w] = plan[i].f
		w--
	}
	p.cachedFiles = cached
	pl.joins = joins[:0]
}

// spliceBlock shifts the block a[lo:hi] right by s while inserting the
// nodes of keys (their low 32 bits) at the pre-splice slots at,
// non-decreasing in [lo, hi]: insert x lands at at[x]+s+x, and the
// entries between two inserts move by s plus the inserts before them.
// Like copy it is safe when source and destination overlap.
func spliceBlock(a []int32, lo, hi, s int32, at []int32, keys []int64) {
	for x := len(at) - 1; x >= 0; x-- {
		d := s + int32(x) + 1
		copy(a[at[x]+d:hi+d], a[at[x]:hi])
		a[at[x]+d-1] = int32(keys[x])
		hi = at[x]
	}
	copy(a[lo+s:hi+s], a[lo:hi])
}

// shiftAdd moves a[lo:hi] right by s ≥ 0 slots, adding add to every
// moved value. Like copy it is safe when source and destination overlap.
func shiftAdd(a []int32, lo, hi, s, add int32) {
	switch {
	case add == 0:
		copy(a[lo+s:hi+s], a[lo:hi])
	case s == 0:
		seg := a[lo:hi]
		for x := range seg {
			seg[x] += add
		}
	default:
		src, dst := a[lo:hi], a[lo+s:hi+s]
		dst = dst[:len(src)]
		for x := len(src) - 1; x >= 0; x-- {
			dst[x] = src[x] + add
		}
	}
}

// moveRuns moves directory entries [lo, hi) right by s, adding add to
// their run starts.
func (ix *TileIndex) moveRuns(lo, hi, s, add int32) {
	copy(ix.dirTiles[lo+s:hi+s], ix.dirTiles[lo:hi])
	shiftAdd(ix.dirStart, lo, hi, s, add)
}

// planJoins fills the tile-index half of jf's plan for the node-ordered
// inserts ins: their tile-major order tix (keys tile<<32 | node) and
// pre-splice slots at, f's directory growth and the tiles it gains. It
// reports whether f reaches the dense threshold. A dense file only
// gains the joiners' bits; a promoted file takes the next bitmap block
// (free blocks are clear, see buildTileIndex) and drops its directory
// entries, and its span is compacted away after the backward pass.
// Either way its tile-major segment is scratch, so the joiners are
// parked at the segment's start.
func (ix *TileIndex) planJoins(jf *joinFile, ins, tix []int64, at []int32) (promoted bool) {
	lo, hi := ix.repOff[jf.f], ix.repOff[jf.f+1]
	c := int32(len(ins))
	if b := ix.bitOf[jf.f]; b >= 0 || hi-lo+c >= denseBitThreshold(ix.tl.Grid().N()) {
		if b < 0 {
			b = int32(ix.blocks)
			ix.blocks++
			ix.bitOf[jf.f] = b
			ix.dirLen[jf.f] = 0
			promoted = true
		}
		words := ix.bitWords[int(b)*ix.wordsPer : int(b+1)*ix.wordsPer]
		if promoted {
			for _, v := range ix.nodes[lo:hi] {
				words[v>>6] |= 1 << (uint(v) & 63)
			}
		}
		for x, key := range ins {
			u := int32(key)
			words[u>>6] |= 1 << (uint(u) & 63)
			tix[x], at[x] = key, lo
		}
		return promoted
	}
	tiles := int32(ix.tl.Tiles())
	jf.grow = min(hi-lo+c, tiles) - min(hi-lo, tiles)
	for x, key := range ins {
		u := int32(key)
		tix[x] = int64(ix.tl.TileOf(u))<<32 | int64(u)
	}
	slices.Sort(tix)
	base := ix.dirOff[jf.f]
	dir := ix.dirTiles[base : base+ix.dirLen[jf.f]]
	starts := ix.dirStart[base : base+ix.dirLen[jf.f]]
	for x, key := range tix {
		tu := int32(key >> 32)
		d, found := slices.BinarySearch(dir, tu)
		// Run d — u's own, or the one u's new run goes in front of —
		// starts at starts[d], or at the segment end past the last run.
		pos := hi
		if d < len(starts) {
			pos = starts[d]
		}
		if found {
			end := hi
			if d+1 < len(starts) {
				end = starts[d+1]
			}
			i, _ := slices.BinarySearch(ix.nodes[pos:end], int32(key))
			pos += int32(i)
		} else if x == 0 || int32(tix[x-1]>>32) != tu {
			jf.newRuns++
		}
		at[x] = pos
	}
	return false
}

// mergeRuns rewrites sparse file f's directory for the batch, from
// the right: its entries move from f's pre-splice span by grow, the
// capacity growth of the files before f, merged with one new entry per
// tile the batch adds. Every run start moves by shift, the inserts of
// the files before f, plus f's inserts in earlier tiles. tix and at are
// f's inserts in tile-major order and their pre-splice slots.
func (ix *TileIndex) mergeRuns(f, grow, shift, newRuns int32, at []int32, tix []int64) {
	base, n := ix.dirOff[f], ix.dirLen[f]
	d, w := base+n-1, base+grow+n+newRuns-1
	x := len(tix) - 1
	for x >= 0 {
		tu := int32(tix[x] >> 32)
		if d >= base && ix.dirTiles[d] >= tu {
			// Old entry d: its run absorbs the joiners of its tile, which
			// all sort inside it or at its start.
			td, sd := ix.dirTiles[d], ix.dirStart[d]
			for x >= 0 && int32(tix[x]>>32) == td {
				x--
			}
			ix.dirTiles[w], ix.dirStart[w] = td, sd+shift+int32(x+1)
			d--
		} else {
			// A new tile: its run starts at its first joiner's slot.
			for x > 0 && int32(tix[x-1]>>32) == tu {
				x--
			}
			ix.dirTiles[w], ix.dirStart[w] = tu, at[x]+shift+int32(x)
			x--
		}
		w--
	}
	ix.moveRuns(base, d+1, grow, shift)
	ix.dirLen[f] = n + newRuns
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
