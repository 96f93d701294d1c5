package cache

import "slices"

// This file implements the cheap deep-copy paths over the flat CSR
// arenas: Clone, behind the served mode's copy-on-write snapshots
// (internal/serve), whose mutator applies churn and fault events to a
// private shadow placement and publishes immutable copies at batch
// boundaries, and CopyInto, behind the batch engine's chunk views
// (internal/sim), which copies a placement into the same destination
// trial after trial. Both are a handful of memcpys of the arenas' used
// lengths — one replica arena, which the tile index's directory indexes
// rather than copies; no per-node allocation, no rebuild — which is what
// keeps them cheap next to a from-scratch Place.

// Clone returns a standalone deep copy of p: every backing arena
// (forward map, replica CSR, cached-file list and the tile index, when
// present) is copied into independently owned memory, so the copy is
// unaffected by later mutation of p or by the next Place call on the
// Placer that built p. A mutable (churn-enabled) placement clones
// mutable, so ReplaceReplica/SwapReplicas keep working on it, while
// readers that treat the clone as frozen get a consistent immutable
// view. Cost is O(Σ M_u + Σ|S_j| + K) memcpy — the slabs in use, not the
// heterogeneous slab arena's worst-case tail — with no index rebuild.
func (p *Placement) Clone() *Placement {
	c := new(Placement)
	p.copyTo(c, 0)
	return c
}

// CopyInto makes dst the deep copy of p that Clone returns, in dst's own
// arenas: each is reused when it holds p's used length, and replaced by
// one a quarter longer when it does not, so copying the placements of
// one Placer into the same dst allocates only while their sizes grow. A
// tile index of dst's from an earlier copy is reused the same way. dst
// must not share arenas with p.
func (p *Placement) CopyInto(dst *Placement) { p.copyTo(dst, 4) }

// CopyBytes returns the bytes a copy of p holds: the used length of
// every arena Clone and CopyInto copy.
func (p *Placement) CopyBytes() int {
	n := 4 * (p.slabBase(p.n) + len(p.lens) + len(p.nodes) + len(p.repOff) +
		len(p.cachedFiles) + len(p.slotFile) + len(p.caps) + len(p.capOff))
	if ix := p.tix; ix != nil {
		n += 4*(len(ix.dirTiles)+len(ix.dirStart)+len(ix.dirOff)+len(ix.dirLen)+len(ix.bitOf)) +
			8*ix.blocks*ix.wordsPer
	}
	return n
}

// copyTo is the one field list of Clone and CopyInto. Every arena is cut
// to its used length: the slabs end at slabBase(n), Σ M_u under
// EnableHetero, where the arena holds n·maxCap slots, and the bitmap
// arena at the blocks in use. A destination arena too small for its
// source is replaced by one with len/slack spare entries (exactly the
// length at slack 0).
func (p *Placement) copyTo(dst *Placement, slack int) {
	d := *dst
	*dst = *p
	dst.files = reuse(d.files, p.files[:p.slabBase(p.n)], slack)
	dst.lens = reuse(d.lens, p.lens, slack)
	dst.nodes = reuse(d.nodes, p.nodes, slack)
	dst.repOff = reuse(d.repOff, p.repOff, slack)
	dst.cachedFiles = reuse(d.cachedFiles, p.cachedFiles, slack)
	dst.slotFile = reuse(d.slotFile, p.slotFile, slack)
	dst.caps = reuse(d.caps, p.caps, slack)
	dst.capOff = reuse(d.capOff, p.capOff, slack)
	if p.tix != nil {
		if d.tix == nil {
			d.tix = new(TileIndex)
		}
		p.tix.copyTo(d.tix, slack)
		dst.tix = d.tix
	}
}

// copyTo deep-copies the tile index for a copied placement: the
// directory and the bitmap blocks in use.
func (ix *TileIndex) copyTo(dst *TileIndex, slack int) {
	d := *dst
	*dst = *ix
	dst.dirTiles = reuse(d.dirTiles, ix.dirTiles, slack)
	dst.dirStart = reuse(d.dirStart, ix.dirStart, slack)
	dst.dirOff = reuse(d.dirOff, ix.dirOff, slack)
	dst.dirLen = reuse(d.dirLen, ix.dirLen, slack)
	dst.bitWords = reuse(d.bitWords, ix.bitWords[:ix.blocks*ix.wordsPer], slack)
	dst.bitOf = reuse(d.bitOf, ix.bitOf, slack)
}

// reuse returns src copied into dst's backing array when it fits, and
// otherwise into a new one with len(src)/slack spare entries, none at
// slack 0. A nil src stays nil: a nil caps or capOff marks a homogeneous
// placement.
func reuse[T any](dst, src []T, slack int) []T {
	if src == nil {
		return nil
	}
	if cap(dst) < len(src) {
		if slack == 0 {
			return slices.Clone(src)
		}
		dst = make([]T, len(src), len(src)+len(src)/slack)
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

// Clone returns a standalone deep copy of the liveness tracker: bitmap,
// permutation and (when a tiling is bound) per-tile live counts are
// copied; the tiling geometry itself is immutable and shared. Used by
// the served mode to publish frozen liveness views alongside placement
// snapshots.
func (lv *Liveness) Clone() *Liveness {
	c := new(Liveness)
	lv.CopyInto(c)
	return c
}

// CopyInto makes dst the deep copy of lv that Clone returns, in dst's
// own arenas, which hold it from the first copy on: every arena's length
// is fixed by the node count and the tiling.
func (lv *Liveness) CopyInto(dst *Liveness) {
	d := *dst
	*dst = *lv
	dst.words = reuse(d.words, lv.words, 0)
	dst.perm = reuse(d.perm, lv.perm, 0)
	dst.pos = reuse(d.pos, lv.pos, 0)
	dst.tileLive = reuse(d.tileLive, lv.tileLive, 0)
}

// CopyBytes returns the bytes a copy of lv holds.
func (lv *Liveness) CopyBytes() int {
	return 8*len(lv.words) + 4*(len(lv.perm)+len(lv.pos)+len(lv.tileLive))
}
