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
//     grows, shrinks or trades one file for another by one memmove of at
//     most M_u entries;
//   - replica CSR: |S_j| is invariant under ReplaceReplica, so a
//     migration is one rotation inside the file's key-ordered segment;
//   - TileIndex: dense files flip two bitmap bits; sparse files fix up
//     the capacity-padded tile directory around the rotation.
//
// The mutation primitives are slot-addressed: the caller names the
// migrating replica by its slot in S_j and passes the forward-list
// positions its own feasibility searches found, so each event searches
// each structure at most once. The primitives check every position they
// are given in O(1) and panic on one that does not address a legal
// event.
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

// ReplaceReplica migrates file j's replica at slot i of S_j — node
// u = Replicas(j)[i] — to node v, which must have a free slot and not
// cache j. at is j's insertion point in NodeFiles(v): the index
// slices.BinarySearch returns on v's sorted list when it reports j
// absent, the search that decides the migration is legal. The forward
// map, the replica CSR and (when present) the tile index are spliced in
// place — O(t(u) + t(v)) for the forward slabs, O(|S_j|) for the CSR
// segment, and O(directory entries) for the tile index; no allocation on
// any path. |S_j| and the cached-file set are invariant (the placement
// profile never drifts, only replica geography), so conditioned request
// samplers and dense-file classifications built at trial start stay
// valid. It panics unless the placement is mutable, i lies inside S_j, v
// has a free slot and at is j's insertion point in v's list (which also
// rules out v = u).
func (p *Placement) ReplaceReplica(j, i int, v int32, at int) {
	p.mustMutate("ReplaceReplica")
	u := p.replicaAt(j, i)
	if int(p.lens[v]) >= p.Cap(int(v)) {
		panic(fmt.Sprintf("cache: ReplaceReplica: node %d has no free slot", v))
	}
	vs := p.forwardSpan(v, int32(j), at)
	us := p.nodeSpan(int(u))
	pu := p.filePos(us, u, int32(j))
	copy(us[pu:], us[pu+1:])
	p.lens[u]--
	vs = vs[:len(vs)+1]
	copy(vs[at+1:], vs[at:])
	vs[at] = int32(j)
	p.lens[v]++
	p.migrate(j, i, u, v)
}

// SwapReplicas exchanges two replicas atomically: file j migrates from
// u = Replicas(j)[i] to v while file j2 = NodeFiles(v)[k] migrates from v
// to u. at is j's insertion point in NodeFiles(v) and at2 is j2's in
// NodeFiles(u), as slices.BinarySearch returns them for an absent file.
// Both nodes keep their distinct-file count, so the exchange is legal
// even when both caches are full — the form churn takes in the common
// K ≫ M regime, where almost every node caches exactly M distinct files
// and a migration into a full cache must displace something. Each node's
// list trades one file for the other in one memmove; the two S_j splices
// are ReplaceReplica's. It panics unless the placement is mutable, i lies
// inside S_j, k inside v's list, and at and at2 are insertion points (so
// v does not cache j, u does not cache j2, and u ≠ v).
func (p *Placement) SwapReplicas(j, i int, v int32, at, k, at2 int) {
	p.mustMutate("SwapReplicas")
	u := p.replicaAt(j, i)
	if uint(k) >= uint(p.lens[v]) {
		panic(fmt.Sprintf("cache: SwapReplicas: index %d outside node %d's %d files", k, v, p.lens[v]))
	}
	vs := p.forwardSpan(v, int32(j), at)
	j2 := vs[k]
	us := p.forwardSpan(u, j2, at2)
	exchange(us, p.filePos(us, u, int32(j)), at2, j2)
	exchange(vs, k, at, int32(j))
	p.migrate(j, i, u, v)
	p.migrate(int(j2), -1, v, u)
}

// mustMutate panics unless the placement can be mutated now.
func (p *Placement) mustMutate(op string) {
	if !p.sorted {
		panic("cache: " + op + " needs a churn-enabled placement (Placer.EnableChurn)")
	}
	if p.staged {
		panic("cache: " + op + " with staged arrivals (call Placer.SpliceArrivals first)")
	}
}

// replicaAt returns S_j's node at slot i, panicking when i lies outside
// the segment.
func (p *Placement) replicaAt(j, i int) int32 {
	seg := p.Replicas(j)
	if uint(i) >= uint(len(seg)) {
		panic(fmt.Sprintf("cache: slot %d outside file %d's %d replicas", i, j, len(seg)))
	}
	return seg[i]
}

// forwardSpan returns node u's sorted list after checking that at is
// f's insertion point in it: every entry before at is below f and every
// entry from at on is above it, so u does not cache f. O(1).
func (p *Placement) forwardSpan(u, f int32, at int) []int32 {
	span := p.nodeSpan(int(u))
	if at < 0 || at > len(span) || at > 0 && span[at-1] >= f || at < len(span) && span[at] <= f {
		panic(fmt.Sprintf("cache: %d is not file %d's insertion point in node %d's list %v", at, f, u, span))
	}
	return span
}

// filePos returns f's index in node u's sorted list span. u caches f by
// the replica CSR; a miss means the two structures disagree.
func (p *Placement) filePos(span []int32, u, f int32) int {
	x, ok := slices.BinarySearch(span, f)
	if !ok {
		panic(fmt.Sprintf("cache: node %d is in S_%d but its list %v lacks the file", u, f, span))
	}
	return x
}

// exchange replaces span[out] by f, whose insertion point in span is in,
// keeping span sorted: one memmove of the entries between the two.
func exchange(span []int32, out, in int, f int32) {
	if out < in {
		copy(span[out:in-1], span[out+1:in])
		span[in-1] = f
		return
	}
	copy(span[in+1:out+1], span[in:out])
	span[in] = f
}

// rotate moves seg's entry at slot i to node v's key-ordered slot, whose
// insertion point before the removal is w: one memmove of the entries
// between the two. It returns v's slot.
func rotate(seg []int32, i, w int, v int32) int {
	if w > i {
		w-- // v lands left of its pre-removal slot
		copy(seg[i:w], seg[i+1:w+1])
	} else {
		copy(seg[w+1:i+1], seg[w:i])
	}
	seg[w] = v
	return w
}

// migrate moves file j's replica u → v inside S_j — one rotation that
// keeps the segment in key order — and fixes up the tile index around
// it. u sits at slot i, or anywhere in S_j when i < 0. A sparse file on
// a tiled placement takes both slots from its directory (see
// TileIndex.splice); dense files and untiled placements binary-search
// the segment by key. Forward slabs are the caller's job.
func (p *Placement) migrate(j, i int, u, v int32) {
	seg := p.Replicas(j)
	ix := p.tix
	if ix != nil && ix.bitOf[j] < 0 {
		ix.splice(j, i, u, v, seg)
		return
	}
	if i < 0 {
		var ok bool
		if i, ok = p.find(seg, u); !ok {
			panic("cache: replica splice: node not in segment")
		}
	}
	w, _ := p.find(seg, v)
	rotate(seg, i, w, v)
	if ix != nil {
		words := ix.FileBits(j)
		words[u>>6] &^= 1 << (uint(u) & 63)
		words[v>>6] |= 1 << (uint(v) & 63)
	}
}

// splice is migrate for a sparse file: one directory search per tile —
// u's entry, then v's unless they share a tile — locates both slots (u's
// by searching u's run when i < 0, v's by searching v's run, or at the
// start of the next run when v's tile holds no replica), rotates S_j and
// fixes up the capacity-padded directory from the same two entries.
// Only the run starts between the two entries move, by one: left when
// u's entry comes first, right otherwise; past both, the removal and the
// insertion cancel. u's entry goes when its run empties and v's tile
// gains an entry when it is new; when both happen the entry moves.
// O(directory entries), allocation-free.
func (ix *TileIndex) splice(j, i int, u, v int32, seg []int32) {
	base := ix.dirOff[j]
	dn := int(ix.dirLen[j])
	dir := ix.dirTiles[base : base+int32(dn)]
	starts := ix.dirStart[base : base+int32(dn)]
	end := func(d int) int32 {
		if d+1 < dn {
			return starts[d+1]
		}
		return int32(len(seg))
	}

	tu := ix.tl.TileOf(u)
	du, ok := slices.BinarySearch(dir, tu)
	if !ok {
		panic("cache: tile-index splice: source tile has no run")
	}
	emptied := end(du)-starts[du] == 1
	if i < 0 {
		x, ok := slices.BinarySearch(seg[starts[du]:end(du)], u)
		if !ok {
			panic("cache: replica splice: node not in segment")
		}
		i = int(starts[du]) + x
	}
	tv := ix.tl.TileOf(v)
	dv, has := du, true
	if tv != tu {
		dv, has = slices.BinarySearch(dir, tv)
	}
	w := len(seg) // v's key-ordered slot before the removal
	switch {
	case has:
		x, _ := slices.BinarySearch(seg[starts[dv]:end(dv)], v)
		w = int(starts[dv]) + x
	case dv < dn:
		w = int(starts[dv])
	}
	at := int32(rotate(seg, i, w, v))
	if tv == tu {
		return // one run gained v as it lost u
	}

	switch {
	case has:
		if du < dv {
			addTo(starts[du+1:dv+1], -1)
		} else {
			addTo(starts[dv+1:du+1], 1)
		}
		if emptied { // u was its run's only replica: drop the entry
			copy(dir[du:], dir[du+1:])
			copy(starts[du:], starts[du+1:])
			dn--
		}
	case !emptied:
		// A new entry for v's tile, its run starting at v. The padded
		// capacity min(|S_j|, Tiles) admits every reachable splice while
		// |S_j| is invariant, and a node arrival that grows |S_j| re-pads
		// it (Placer.SpliceArrivals), so hitting the capacity here means a
		// caller grew a segment without re-padding its directory.
		if int32(dn) >= ix.dirOff[j+1]-base {
			panic(fmt.Sprintf("cache: tile-index splice: file %d's directory is at capacity; a grown |S_j| needs its directory re-padded (Placer.SpliceArrivals)", j))
		}
		if du < dv {
			addTo(starts[du+1:dv], -1)
		} else {
			addTo(starts[dv:du+1], 1)
		}
		dir = ix.dirTiles[base : base+int32(dn)+1]
		starts = ix.dirStart[base : base+int32(dn)+1]
		copy(dir[dv+1:], dir[dv:dn])
		copy(starts[dv+1:], starts[dv:dn])
		dir[dv], starts[dv] = tv, at
		dn++
	default: // u's run empties as v's tile opens one: the entry moves
		if du < dv {
			dv--
			for d := du; d < dv; d++ {
				dir[d], starts[d] = dir[d+1], starts[d+1]-1
			}
		} else {
			for d := du; d > dv; d-- {
				dir[d], starts[d] = dir[d-1], starts[d-1]+1
			}
		}
		dir[dv], starts[dv] = tv, at
	}
	ix.dirLen[j] = int32(dn)
}

// ReplicaSlots returns the total replica count Σ_j |S_j| — the size of
// the flat replica arena, and the natural weight for drawing a uniform
// cached replica (file ∝ |S_j|).
func (p *Placement) ReplicaSlots() int { return int(p.repOff[p.k]) }

// slotShift sets the bucket width of the slot index: one entry per
// 1<<slotShift arena slots.
const slotShift = 4

// SlotReplica maps a flat replica-arena index (0 ≤ slot < ReplicaSlots)
// to its file j and its slot i in S_j, so the replica is Replicas(j)[i]
// — the inverse the churn engine uses to draw a uniform replica. Slots
// follow the arena's order: file-major, each S_j in key order (see
// Replicas). It reads the slot index of a churn-enabled placement, which
// names the file holding every 16th slot, so the search covers only the
// files that start inside one bucket: O(1) while |S_j| is not tiny
// against the bucket.
func (p *Placement) SlotReplica(slot int) (file, i int) {
	s := int32(slot)
	b := slot >> slotShift
	// invariant: repOff[lo] ≤ s < repOff[hi]
	lo, hi := int(p.slotFile[b]), int(p.slotFile[b+1])+1
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.repOff[mid] <= s {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, slot - int(p.repOff[lo])
}

// indexSlots rebuilds SlotReplica's index from the replica CSR offsets:
// slotFile[b] is the file holding arena slot b<<slotShift, and one entry
// past the last bucket holds K−1, the bound of the last bucket's search.
// The file holding slot s is the c-th cached file, where c counts the
// cached files that end at or before s, so one pass counts each cached
// file at the first bucket past its end and a prefix sum turns the
// counts into files, with no branch on the segment sizes. It must run
// whenever repOff moves — every churn-enabled build and every
// SpliceArrivals — and is sized once for the full replica arena, so it
// allocates only on the first build.
func (p *Placement) indexSlots() {
	buckets := int(p.repOff[p.k]+1<<slotShift-1) >> slotShift
	if cap(p.slotFile) < buckets+1 {
		p.slotFile = make([]int32, 0, cap(p.nodes)>>slotShift+2)
	}
	sf := p.slotFile[:buckets+1]
	clear(sf)
	for _, j := range p.cachedFiles {
		sf[(p.repOff[j+1]+1<<slotShift-1)>>slotShift]++
	}
	c := int32(0)
	for b := range sf[:buckets] {
		c += sf[b]
		sf[b] = p.cachedFiles[c]
	}
	sf[buckets] = int32(p.k - 1)
	p.slotFile = sf
}
