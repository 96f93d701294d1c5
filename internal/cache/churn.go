package cache

import (
	"fmt"
	"slices"
)

// This file implements in-place placement mutation — the cache layer of
// the engine's §VI dynamic regime. Every placement's structures can be
// spliced without arena reallocation, and a churn-enabled Placer
// (Placer.EnableChurn) additionally sorts the node lists the forward
// splices keep in order:
//
//   - forward map: per-node slabs of Cap(u) slots, so a node's list
//     grows/shrinks by a memmove of at most M_u entries;
//   - replica CSR: |S_j| is invariant under ReplaceReplica, so a
//     migration is a rotation inside the file's segment;
//   - TileIndex: dense files flip two bitmap bits; sparse files splice
//     the tile-major run and the capacity-padded tile directory.
//
// Node arrivals (hetero.go) are the one mutation that grows segments;
// they splice through the same layout by shifting it, once per batch.
// Every mutation preserves the exact invariants the from-scratch build
// establishes (sorted node lists, node-sorted replica segments,
// tile-major index segments with ascending directories padded to
// min(|S_j|, Tiles)), which is what the mutation-storm property tests
// assert batch by batch.

// Mutable reports whether the placement supports ReplaceReplica (it was
// built by a churn-enabled Placer).
func (p *Placement) Mutable() bool { return p.sorted }

// CanReplace reports whether ReplaceReplica(j, u, v) is a legal
// migration: u caches j, and v is a distinct node that does not cache j
// and has a free slot. The churn engine uses it to drop infeasible
// events instead of panicking.
func (p *Placement) CanReplace(j int, u, v int32) bool {
	return u != v && p.T(int(v)) < p.Cap(int(v)) && !p.Has(int(v), j) && p.Has(int(u), j)
}

// ReplaceReplica migrates file j's replica from node u to node v,
// splicing the forward map, the replica CSR and (when present) the tile
// index in place — O(t(u) + t(v)) for the forward slabs, O(|S_j|) for
// the CSR segment, and O(|S_j| + directory entries) for the tile index;
// no allocation on any path. |S_j| and the cached-file set are invariant
// (the placement profile never drifts, only replica geography), so
// conditioned request samplers and dense-file classifications built at
// trial start stay valid. It panics unless the placement is mutable and
// the migration is legal (see CanReplace) — the engine validates events
// first, so a violation here is a programming error.
func (p *Placement) ReplaceReplica(j int, u, v int32) {
	if !p.sorted {
		panic("cache: ReplaceReplica needs a churn-enabled placement (Placer.EnableChurn)")
	}
	if p.staged {
		panic("cache: ReplaceReplica with staged arrivals (call Placer.SpliceArrivals first)")
	}
	if u == v {
		panic("cache: ReplaceReplica needs distinct nodes")
	}
	if !p.Has(int(u), j) {
		panic(fmt.Sprintf("cache: ReplaceReplica: node %d does not cache file %d", u, j))
	}
	if int(p.lens[v]) >= p.Cap(int(v)) {
		panic(fmt.Sprintf("cache: ReplaceReplica: node %d has no free slot", v))
	}
	if p.Has(int(v), j) {
		panic(fmt.Sprintf("cache: ReplaceReplica: node %d already caches file %d", v, j))
	}
	p.forwardDrop(u, int32(j))
	p.forwardAdd(v, int32(j))
	p.migrate(j, u, v)
}

// CanSwap reports whether SwapReplicas(j, u, j2, v) is a legal exchange:
// distinct nodes, distinct files, each source caches the file it gives
// and neither caches the file it receives.
func (p *Placement) CanSwap(j int, u int32, j2 int, v int32) bool {
	return u != v && j != j2 &&
		p.Has(int(u), j) && p.Has(int(v), j2) &&
		!p.Has(int(v), j) && !p.Has(int(u), j2)
}

// SwapReplicas exchanges two replicas atomically: file j migrates u → v
// while file j2 migrates v → u. Both nodes keep their distinct-file
// count, so the exchange is legal even when both caches are full — the
// form churn takes in the common K ≫ M regime, where almost every node
// caches exactly M distinct files and a migration into a full cache
// must displace something. Cost and invariants are those of two
// ReplaceReplica calls; it panics unless the exchange is legal (see
// CanSwap).
func (p *Placement) SwapReplicas(j int, u int32, j2 int, v int32) {
	if !p.sorted {
		panic("cache: SwapReplicas needs a churn-enabled placement (Placer.EnableChurn)")
	}
	if p.staged {
		panic("cache: SwapReplicas with staged arrivals (call Placer.SpliceArrivals first)")
	}
	if !p.CanSwap(j, u, j2, v) {
		panic(fmt.Sprintf("cache: illegal swap of files (%d,%d) between nodes (%d,%d)", j, j2, u, v))
	}
	p.forwardDrop(u, int32(j))
	p.forwardAdd(u, int32(j2))
	p.forwardDrop(v, int32(j2))
	p.forwardAdd(v, int32(j))
	p.migrate(j, u, v)
	p.migrate(j2, v, u)
}

// forwardDrop removes file f from node u's slab (sorted memmove). The
// caller has validated membership.
func (p *Placement) forwardDrop(u, f int32) {
	base := p.slabBase(int(u))
	span := p.files[base : base+int(p.lens[u])]
	i, _ := slices.BinarySearch(span, f)
	copy(span[i:], span[i+1:])
	p.lens[u]--
}

// forwardAdd inserts file f into node u's slab (sorted memmove). The
// caller has validated the free slot and non-membership.
func (p *Placement) forwardAdd(u, f int32) {
	base := p.slabBase(int(u))
	ln := int(p.lens[u])
	span := p.files[base : base+ln+1]
	i, _ := slices.BinarySearch(span[:ln], f)
	copy(span[i+1:], span[i:ln])
	span[i] = f
	p.lens[u]++
}

// migrate splices file j's replica u → v through the replica CSR and,
// when present, the tile index. Forward slabs are the caller's job.
func (p *Placement) migrate(j int, u, v int32) {
	spliceSorted(p.nodes[p.repOff[j]:p.repOff[j+1]], u, v)
	if p.tix != nil {
		p.tix.replaceReplica(j, u, v)
	}
}

// spliceSorted replaces old with new in the sorted segment seg with one
// memmove, restoring ascending order.
func spliceSorted(seg []int32, old, new int32) {
	i, ok := slices.BinarySearch(seg, old)
	if !ok {
		panic("cache: replica splice: node not in segment")
	}
	switch {
	case new > old:
		j, _ := slices.BinarySearch(seg[i+1:], new)
		j += i + 1 // first index > i with seg[j] ≥ new
		copy(seg[i:], seg[i+1:j])
		seg[j-1] = new
	case new < old:
		j, _ := slices.BinarySearch(seg[:i], new)
		copy(seg[j+1:i+1], seg[j:i])
		seg[j] = new
	default:
		panic("cache: replica splice: nodes must differ")
	}
}

// ReplicaSlots returns the total replica count Σ_j |S_j| — the size of
// the flat replica arena, and the natural weight for drawing a uniform
// cached replica (file ∝ |S_j|).
func (p *Placement) ReplicaSlots() int { return int(p.repOff[p.k]) }

// SlotReplica maps a flat replica-arena index (0 ≤ slot < ReplicaSlots)
// to its (file, node) pair by binary-searching the CSR offsets — the
// O(log K) inverse the churn engine uses to draw a uniform replica.
func (p *Placement) SlotReplica(slot int) (file int, node int32) {
	s := int32(slot)
	lo, hi := 0, p.k // invariant: repOff[lo] ≤ s < repOff[hi]
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.repOff[mid] <= s {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, p.nodes[slot]
}

// replaceReplica splices the tile index for the migration of file j's
// replica from u to v. Dense files flip two bitmap bits; sparse files
// rotate the tile-major segment and splice the capacity-padded
// directory (remove u's run entry when it empties, insert v's when its
// tile is new). O(|S_j| + directory entries), allocation-free.
func (ix *TileIndex) replaceReplica(j int, u, v int32) {
	if b := ix.bitOf[j]; b >= 0 {
		words := ix.bitWords[int(b)*ix.wordsPer : (int(b)+1)*ix.wordsPer]
		words[u>>6] &^= 1 << (uint(u) & 63)
		words[v>>6] |= 1 << (uint(v) & 63)
		return
	}
	s1 := ix.repOff[j+1]
	dBase := int(ix.dirOff[j])
	dn := int(ix.dirLen[j])
	dir := ix.dirTiles[dBase : dBase+dn]
	starts := ix.dirStart[dBase : dBase+dn]
	tu, tv := ix.tl.TileOf(u), ix.tl.TileOf(v)

	// Remove u from its run. Runs are (tile, node)-sorted, so both the
	// directory entry and the in-run position binary-search.
	du, ok := slices.BinarySearch(dir, tu)
	if !ok {
		panic("cache: tile-index splice: source tile has no run")
	}
	ru0 := starts[du]
	ru1 := s1
	if du+1 < dn {
		ru1 = starts[du+1]
	}
	pu, ok := slices.BinarySearch(ix.nodes[ru0:ru1], u)
	if !ok {
		panic("cache: tile-index splice: node not in its tile run")
	}
	puAbs := int(ru0) + pu
	copy(ix.nodes[puAbs:s1-1], ix.nodes[puAbs+1:s1])
	for i := du + 1; i < dn; i++ {
		starts[i]--
	}
	if ru1-ru0 == 1 { // u was the run's only replica: drop the entry
		copy(dir[du:], dir[du+1:])
		copy(starts[du:], starts[du+1:])
		dn--
		ix.dirLen[j]--
	}
	dir, starts = dir[:dn], starts[:dn]

	// Insert v. The segment's valid data now ends at s1-1; the insertion
	// restores the full |S_j| width.
	dv, ok := slices.BinarySearch(dir, tv)
	var pvAbs int32
	if ok {
		rv0 := starts[dv]
		rv1 := s1 - 1
		if dv+1 < dn {
			rv1 = starts[dv+1]
		}
		pv, _ := slices.BinarySearch(ix.nodes[rv0:rv1], v)
		pvAbs = rv0 + int32(pv)
	} else {
		// New directory entry at dv; its run starts where the next run
		// currently begins (or at the end of the valid data). The padded
		// capacity min(|S_j|, Tiles) admits every reachable splice while
		// |S_j| is invariant, and a node arrival that grows |S_j| re-pads
		// it (Placer.SpliceArrivals), so hitting the capacity here means a
		// caller grew a segment without re-padding its directory.
		if int32(dn) >= ix.dirOff[j+1]-ix.dirOff[j] {
			panic(fmt.Sprintf("cache: tile-index splice: file %d's directory is at capacity; a grown |S_j| needs its directory re-padded (Placer.SpliceArrivals)", j))
		}
		pvAbs = s1 - 1
		if dv < dn {
			pvAbs = starts[dv]
		}
		dir = ix.dirTiles[dBase : dBase+dn+1]
		starts = ix.dirStart[dBase : dBase+dn+1]
		copy(dir[dv+1:], dir[dv:dn])
		copy(starts[dv+1:], starts[dv:dn])
		dir[dv] = tv
		starts[dv] = pvAbs
		dn++
		ix.dirLen[j]++
	}
	copy(ix.nodes[pvAbs+1:s1], ix.nodes[pvAbs:s1-1])
	ix.nodes[pvAbs] = v
	for i := dv + 1; i < dn; i++ {
		starts[i]++
	}
}
