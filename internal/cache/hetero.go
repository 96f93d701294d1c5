package cache

import (
	"cmp"
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
// land at their key-ordered slots. One backward pass of block moves does
// that for the replica CSR and the capacity-padded tile directory
// together, in O(Σ|S_j| + K) memmove and add work per batch, however
// many nodes it holds, inside the arenas EnableHetero budgeted for the
// worst case. Afterwards every structure equals a from-scratch rebuild
// of the forward map, directory padding included; only the numbering of
// dense-file bitmap blocks may differ (a file promoted by a join takes
// the next free block).

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
	slices.Sort(p.files[base : base+ln])
	p.lens[u] = int32(ln)
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
// one backward pass, whatever the number of nodes staged. The CSR
// offsets move, so SlotReplica's index is rebuilt after them. Each file the
// batch touches gains its replicas at their key-ordered slots, and its
// capacity-padded tile directory grows to min(|S_j|, Tiles) entries —
// joiners in one tile share a run, and a new tile opens one entry. A
// file reaching the dense threshold moves to a bitmap with an empty
// directory, the layout buildTileIndex gives, so post-arrival churn
// splices have the headroom the migrate capacity panic assumes.
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
	fileKey := func(x int64) int64 { return x>>32<<32 | int64(p.key(int32(x))) }
	slices.SortFunc(joins, func(a, b int64) int { return cmp.Compare(fileKey(a), fileKey(b)) })
	ix := p.tix

	// The plan: group the inserts by file and find each one's slot in the
	// file's key-ordered segment.
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
			i, _ := p.find(p.nodes[at:hi], int32(joins[x]))
			at += int32(i)
			pl.joinAt[x] = at
		}
		jf := joinFile{f: f, end: int32(e), fresh: lo == hi}
		if ix != nil && ix.planJoins(&jf, p.nodes[lo:hi], lo, joins[s:e], pl.joinAt[s:e]) && promoted < 0 {
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
	// directory, spans after f move by the capacity growth up to f (run
	// starts are segment-relative and move only inside f).
	k, total := int32(pl.k), int32(len(joins))
	hi, next := p.repOff[k], k
	p.nodes = p.nodes[:hi+total]
	var dhi int32
	if ix != nil {
		dhi = ix.dirOff[k]
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
		addTo(p.repOff[f+1:next+1], total)
		if ix != nil {
			ix.moveRuns(ix.dirOff[f+1], dhi, grow)
			addTo(ix.dirOff[f+1:next+1], grow)
			grow -= jf.grow
			dhi = ix.dirOff[f]
			if ix.bitOf[f] < 0 {
				ix.mergeRuns(f, grow, lo, jf.newRuns, pl.joinAt[s:e], joins[s:e])
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
	p.indexSlots()
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

// addTo adds add to every entry of a.
func addTo(a []int32, add int32) {
	for x := range a {
		a[x] += add
	}
}

// moveRuns moves directory entries [lo, hi) right by s.
func (ix *TileIndex) moveRuns(lo, hi, s int32) {
	copy(ix.dirTiles[lo+s:hi+s], ix.dirTiles[lo:hi])
	copy(ix.dirStart[lo+s:hi+s], ix.dirStart[lo:hi])
}

// planJoins fills the tile-index half of jf's plan: f's directory growth
// and the tiles it gains from the key-ordered inserts ins, given f's
// pre-splice segment seg, which starts at arena slot lo, and the
// inserts' pre-splice arena slots at. It reports whether f reaches the
// dense threshold. A dense file only gains the joiners' bits; a promoted
// file takes the next bitmap block (free blocks are clear, see
// buildTileIndex) and drops its directory entries, and its span is
// compacted away after the backward pass.
func (ix *TileIndex) planJoins(jf *joinFile, seg []int32, lo int32, ins []int64, at []int32) (promoted bool) {
	c := int32(len(ins))
	size := int32(len(seg))
	if b := ix.bitOf[jf.f]; b >= 0 || size+c >= denseBitThreshold(ix.tl.Grid().N()) {
		if b < 0 {
			b = int32(ix.blocks)
			ix.blocks++
			ix.bitOf[jf.f] = b
			ix.dirLen[jf.f] = 0
			promoted = true
		}
		words := ix.bitWords[int(b)*ix.wordsPer : int(b+1)*ix.wordsPer]
		if promoted {
			for _, v := range seg {
				words[v>>6] |= 1 << (uint(v) & 63)
			}
		}
		for _, key := range ins {
			u := int32(key)
			words[u>>6] |= 1 << (uint(u) & 63)
		}
		return promoted
	}
	tiles := int32(ix.tl.Tiles())
	jf.grow = min(size+c, tiles) - min(size, tiles)
	for x, key := range ins {
		// The segment is key-ordered, so a replica already in u's tile
		// sits next to u's slot.
		tu, i := ix.tl.TileOf(int32(key)), at[x]-lo
		if i > 0 && ix.tl.TileOf(seg[i-1]) == tu || i < size && ix.tl.TileOf(seg[i]) == tu {
			continue
		}
		if x == 0 || ix.tl.TileOf(int32(ins[x-1])) != tu {
			jf.newRuns++
		}
	}
	return false
}

// mergeRuns rewrites sparse file f's directory for the batch, from the
// right: its entries move from f's pre-splice span by grow, the capacity
// growth of the files before f, merged with one new entry per tile the
// batch adds. A run start moves by f's inserts in earlier tiles. ins
// are f's inserts in key order and at their pre-splice slots, which
// index the arena from lo.
func (ix *TileIndex) mergeRuns(f, grow, lo, newRuns int32, at []int32, ins []int64) {
	base, n := ix.dirOff[f], ix.dirLen[f]
	d, w := base+n-1, base+grow+n+newRuns-1
	x := len(ins) - 1
	for x >= 0 {
		tu := ix.tl.TileOf(int32(ins[x]))
		if d >= base && ix.dirTiles[d] >= tu {
			// Old entry d: its run absorbs the joiners of its tile, which
			// all sort inside it or at its start.
			td, sd := ix.dirTiles[d], ix.dirStart[d]
			for x >= 0 && ix.tl.TileOf(int32(ins[x])) == td {
				x--
			}
			ix.dirTiles[w], ix.dirStart[w] = td, sd+int32(x+1)
			d--
		} else {
			// A new tile: its run starts at its first joiner's slot.
			for x > 0 && ix.tl.TileOf(int32(ins[x-1])) == tu {
				x--
			}
			ix.dirTiles[w], ix.dirStart[w] = tu, at[x]-lo+int32(x)
			x--
		}
		w--
	}
	ix.moveRuns(base, d+1, grow)
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
