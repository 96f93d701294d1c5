package cache

import "slices"

// This file implements the cheap deep-clone path behind the served
// mode's copy-on-write snapshots (internal/serve): the mutator applies
// churn and fault events to a private shadow placement and publishes
// immutable copies at batch boundaries, so concurrent readers never
// observe a half-spliced structure. Clone is a handful of memcpys over
// the flat CSR arenas — one replica arena, which the tile index's
// directory indexes rather than copies; no per-node allocation, no
// rebuild — which is what keeps the publish cadence cheap next to a
// from-scratch Place.

// Clone returns a standalone deep copy of p: every backing arena
// (forward map, replica CSR, cached-file list and the tile index, when
// present) is copied into independently owned memory, so the copy is
// unaffected by later mutation of p or by the next Place call on the
// Placer that built p. A mutable (churn-enabled) placement clones
// mutable, so ReplaceReplica/SwapReplicas keep working on it, while
// readers that treat the clone as frozen get a consistent immutable
// view. Cost is O(n·M) memcpy — no per-node allocations and no index
// rebuild.
func (p *Placement) Clone() *Placement {
	c := *p
	c.files = slices.Clone(p.files)
	c.lens = slices.Clone(p.lens)
	c.nodes = slices.Clone(p.nodes)
	c.repOff = slices.Clone(p.repOff)
	c.cachedFiles = slices.Clone(p.cachedFiles)
	c.slotFile = slices.Clone(p.slotFile)
	c.caps = slices.Clone(p.caps)
	c.capOff = slices.Clone(p.capOff)
	if p.tix != nil {
		c.tix = p.tix.clone()
	}
	return &c
}

// clone deep-copies the tile index for a cloned placement: the directory
// and the bitmap blocks in use.
func (ix *TileIndex) clone() *TileIndex {
	c := *ix
	c.dirTiles = slices.Clone(ix.dirTiles)
	c.dirStart = slices.Clone(ix.dirStart)
	c.dirOff = slices.Clone(ix.dirOff)
	c.dirLen = slices.Clone(ix.dirLen)
	c.bitWords = slices.Clone(ix.bitWords[:ix.blocks*ix.wordsPer])
	c.bitOf = slices.Clone(ix.bitOf)
	return &c
}

// Clone returns a standalone deep copy of the liveness tracker: bitmap,
// permutation and (when a tiling is bound) per-tile live counts are
// copied; the tiling geometry itself is immutable and shared. Used by
// the served mode to publish frozen liveness views alongside placement
// snapshots.
func (lv *Liveness) Clone() *Liveness {
	c := *lv
	c.words = slices.Clone(lv.words)
	c.perm = slices.Clone(lv.perm)
	c.pos = slices.Clone(lv.pos)
	c.tileLive = slices.Clone(lv.tileLive)
	return &c
}
