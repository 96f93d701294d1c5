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
//     migration is one rotation inside the file's key-ordered segment;
//   - TileIndex: dense files flip two bitmap bits; sparse files fix up
//     the capacity-padded tile directory around the rotation.
//
// Node arrivals (hetero.go) are the one mutation that grows segments;
// they splice through the same layout by shifting it, once per batch.
// Every mutation preserves the exact invariants the from-scratch build
// establishes (sorted node lists, key-ordered replica segments, ascending
// directories padded to min(|S_j|, Tiles)), which is what the
// mutation-storm property tests assert batch by batch.

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
// the CSR segment, and O(directory entries) for the tile index; no
// allocation on any path. |S_j| and the cached-file set are invariant
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

// migrate moves file j's replica u → v inside S_j — one rotation that
// keeps the segment in key order — and fixes up the tile index around
// it. Forward slabs are the caller's job.
func (p *Placement) migrate(j int, u, v int32) {
	seg := p.Replicas(j)
	i, ok := p.find(seg, u)
	if !ok {
		panic("cache: replica splice: node not in segment")
	}
	w, _ := p.find(seg, v)
	if w > i {
		w-- // v lands left of its pre-removal slot
		copy(seg[i:w], seg[i+1:w+1])
	} else {
		copy(seg[w+1:i+1], seg[w:i])
	}
	seg[w] = v
	if p.tix != nil {
		p.tix.migrate(j, u, v, int32(w), int32(len(seg)))
	}
}

// ReplicaSlots returns the total replica count Σ_j |S_j| — the size of
// the flat replica arena, and the natural weight for drawing a uniform
// cached replica (file ∝ |S_j|).
func (p *Placement) ReplicaSlots() int { return int(p.repOff[p.k]) }

// SlotReplica maps a flat replica-arena index (0 ≤ slot < ReplicaSlots)
// to its (file, node) pair by binary-searching the CSR offsets — the
// O(log K) inverse the churn engine uses to draw a uniform replica. Slots
// follow the arena's order: file-major, each S_j in key order (see
// Replicas).
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

// migrate fixes up the tile index after S_j's rotation moved the
// replica u → v, with v now at slot at of the size-long segment. Dense
// files flip two bitmap bits. Sparse files update the capacity-padded
// directory: the run starts after u's run move left by one and u's entry
// goes when its run empties, then v's run gains an entry when its tile
// is new and the starts after it move right by one. O(directory
// entries), allocation-free.
func (ix *TileIndex) migrate(j int, u, v, at, size int32) {
	if b := ix.bitOf[j]; b >= 0 {
		words := ix.bitWords[int(b)*ix.wordsPer : (int(b)+1)*ix.wordsPer]
		words[u>>6] &^= 1 << (uint(u) & 63)
		words[v>>6] |= 1 << (uint(v) & 63)
		return
	}
	base := ix.dirOff[j]
	dn := int(ix.dirLen[j])
	dir := ix.dirTiles[base : base+int32(dn)]
	starts := ix.dirStart[base : base+int32(dn)]

	du, ok := slices.BinarySearch(dir, ix.tl.TileOf(u))
	if !ok {
		panic("cache: tile-index splice: source tile has no run")
	}
	end := size
	if du+1 < dn {
		end = starts[du+1]
	}
	for d := du + 1; d < dn; d++ {
		starts[d]--
	}
	if end-starts[du] == 1 { // u was the run's only replica: drop the entry
		copy(dir[du:], dir[du+1:])
		copy(starts[du:], starts[du+1:])
		dn--
	}

	tv := ix.tl.TileOf(v)
	dv, ok := slices.BinarySearch(dir[:dn], tv)
	if !ok {
		// A new entry for v's tile, its run starting at v. The padded
		// capacity min(|S_j|, Tiles) admits every reachable splice while
		// |S_j| is invariant, and a node arrival that grows |S_j| re-pads
		// it (Placer.SpliceArrivals), so hitting the capacity here means a
		// caller grew a segment without re-padding its directory.
		if int32(dn) >= ix.dirOff[j+1]-base {
			panic(fmt.Sprintf("cache: tile-index splice: file %d's directory is at capacity; a grown |S_j| needs its directory re-padded (Placer.SpliceArrivals)", j))
		}
		dir = ix.dirTiles[base : base+int32(dn)+1]
		starts = ix.dirStart[base : base+int32(dn)+1]
		copy(dir[dv+1:], dir[dv:dn])
		copy(starts[dv+1:], starts[dv:dn])
		dir[dv], starts[dv] = tv, at
		dn++
	}
	for d := dv + 1; d < dn; d++ {
		starts[d]++
	}
	ix.dirLen[j] = int32(dn)
}
