package sim

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/ballsbins"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dist"
)

// Served-mode extraction: a Snapshot is the trial state a batch Runner
// re-arms every trial (trialState: placement, tile index, liveness mask
// and the arrival, churn and fault schedules), armed once for one era
// and living outside the batch engine. The serving daemon
// (internal/serve, cmd/cachesimd) compiles one Snapshot per era, applies
// mutation batches to it through Advance, and publishes immutable Clones
// to concurrent readers through an atomic pointer; the batch engine and
// the daemon therefore arm, advance and bind through the same code,
// which is what lets a quiesced daemon answer bit-identically to
// RunTrial (pinned by the serve golden tests).
//
// A Snapshot is NOT safe for concurrent mutation: exactly one goroutine
// may call Advance. The read-only views (Placement, Liveness, sampler
// and strategies built over them) are safe for any number of concurrent
// readers as long as nobody calls Advance on that same value — which is
// the copy-on-write discipline internal/serve enforces by mutating a
// private shadow and publishing Clones.

// Snapshot is one era of served placement state: the placement (with
// tile index when the world is indexed, mutable when the world mutates
// it), the liveness mask (when faults are configured) and the event
// schedules that evolve them.
type Snapshot struct {
	trialState

	era uint64 // trial index the placement was compiled from
	seq uint64 // mutation batches applied since compile
	ev  Result // churn/fault/arrival event counters accumulated by Advance
}

// Snapshot compiles the served state for trial era t: it arms the trial
// state RunTrial(t) arms, so the placement — node lists, replica CSR
// and tile index — is the batch trial's, and the churn, fault and
// arrival schedules run on the trial's own streams, applied at the
// daemon's own batch cadence.
func (w *World) Snapshot(t uint64) *Snapshot {
	s := &Snapshot{trialState: w.newTrialState(), era: t}
	s.arm(t)
	return s
}

// Placement returns the snapshot's placement view (replica CSR + tile
// index). Read-only for everyone except the single Advance caller.
func (s *Snapshot) Placement() *cache.Placement { return s.p }

// Liveness returns the snapshot's node liveness mask, nil when the
// world has no fault process (all nodes permanently live).
func (s *Snapshot) Liveness() *cache.Liveness { return s.live }

// World returns the world the snapshot was compiled from.
func (s *Snapshot) World() *World { return s.w }

// Era returns the trial index the snapshot's placement was compiled
// from; Seq returns the number of mutation batches applied since.
// Together they name the exact state version a decision observed.
func (s *Snapshot) Era() uint64 { return s.era }

// Seq returns the number of Advance batches applied since compile.
func (s *Snapshot) Seq() uint64 { return s.seq }

// FileSampler returns the request file distribution conditioned for
// this snapshot's placement under the world's miss policy — the served
// twin of the batch engine's per-trial sampler. Safe for concurrent
// use with a caller-owned RNG.
func (s *Snapshot) FileSampler() dist.Popularity { return s.pop }

// NewStrategy builds a fresh strategy instance bound to this snapshot's
// placement and liveness mask. Each concurrent decision context needs
// its own instance (strategies carry per-call scratch); rebinding an
// existing instance to a newer snapshot is cheaper — see Bind.
func (s *Snapshot) NewStrategy() core.Strategy { return s.bind(nil) }

// Bind rebinds an existing strategy instance (built by NewStrategy on
// an older snapshot of the same world) to this snapshot's state. All
// built-in strategies support rebinding; a non-rebindable custom
// strategy falls back to a fresh build. Returns the bound instance.
func (s *Snapshot) Bind(strat core.Strategy) core.Strategy { return s.bind(strat) }

// Advance applies the arrival, fault and churn schedules accrued by c
// served requests, mutating the snapshot in place — one batch-engine
// chunk barrier. Only the single mutator goroutine may call Advance;
// concurrent readers must hold a Clone.
func (s *Snapshot) Advance(c int) {
	s.advance(c, nil, &s.ev)
	s.seq++
}

// Clone returns an immutable deep copy of the snapshot's state for
// publication: placement, tile index, liveness and the vacancy list are
// independently owned, so later Advance calls on s never disturb
// readers of the clone. The clone carries the era/seq stamp and event
// counters but no schedule state — it cannot be Advanced, only read.
func (s *Snapshot) Clone() *Snapshot {
	c := &Snapshot{
		trialState: trialState{w: s.w, p: s.p.Clone(), pop: s.pop},
		era:        s.era,
		seq:        s.seq,
		ev:         s.ev,
	}
	if s.live != nil {
		c.live = s.live.Clone()
	}
	// The weighted-view multipliers are immutable for the era (arrivals
	// change caps' occupancy, never C_u), so clones share the slice.
	c.heteroSt.mults = s.heteroSt.mults
	c.heteroSt.vacantList = slices.Clone(s.heteroSt.vacantList)
	return c
}

// WrapLoads returns the load view strategies bound to this snapshot
// should compare through: l itself for homogeneous (or uniform-profile)
// worlds, a capacity-weighted wrapper otherwise. Writes always go to
// the raw vector; only the comparison view is weighted.
func (s *Snapshot) WrapLoads(l core.LoadReader) core.LoadReader {
	if s.heteroSt.mults == nil {
		return l
	}
	return ballsbins.NewWeightedLoads(l, s.heteroSt.mults)
}

// Info returns the snapshot's era diagnostics — the state-version stamp
// and mutation counters batch and served modes both report.
func (s *Snapshot) Info() SnapshotInfo {
	info := SnapshotInfo{
		Era:           s.era,
		Seq:           s.seq,
		Uncached:      s.p.UncachedCount(),
		ChurnEvents:   s.ev.ChurnEvents,
		ChurnSkipped:  s.ev.ChurnSkipped,
		FaultEvents:   s.ev.FaultEvents,
		RecoverEvents: s.ev.RecoverEvents,
		FaultSkipped:  s.ev.FaultSkipped,
	}
	if s.live != nil {
		info.DeadNodes = s.live.DeadCount()
	}
	info.ArrivalEvents = s.ev.ArrivalEvents
	info.ArrivalSkipped = s.ev.ArrivalSkipped
	info.Vacant = len(s.heteroSt.vacantList)
	return info
}

// SnapshotInfo is the placement-era diagnostic stamp shared by the
// batch engine (cachesim -v) and the served mode (/metrics, which
// carries it under these JSON names): which era the active placement was
// compiled from, how many mutation batches it has absorbed, and the
// cumulative event counts behind them.
type SnapshotInfo struct {
	Era           uint64 `json:"era"`            // trial index the placement was compiled from
	Seq           uint64 `json:"seq"`            // mutation batches applied since compile
	Uncached      int    `json:"uncached"`       // library files with zero replicas now; arrivals can cache some mid-era
	ChurnEvents   int    `json:"churn_events"`   // replica migrations applied
	ChurnSkipped  int    `json:"churn_skipped"`  // infeasible churn events dropped
	FaultEvents   int    `json:"fault_events"`   // crash events applied
	RecoverEvents int    `json:"recover_events"` // recovery events applied
	FaultSkipped  int    `json:"fault_skipped"`  // infeasible fault events dropped
	DeadNodes     int    `json:"dead_nodes"`     // currently dead nodes

	ArrivalEvents  int `json:"arrival_events"`  // node arrivals applied (HeteroArrival)
	ArrivalSkipped int `json:"arrival_skipped"` // arrival events burned with no vacant node left
	Vacant         int `json:"vacant"`          // currently vacant (not-yet-arrived) nodes
}

// String renders the stamp in the compact era=…/seq=… form both
// cachesim -v and the daemon logs use. The arrival counters render only
// when the arrival process is in play, so homogeneous stamps keep their
// historical shape.
func (i SnapshotInfo) String() string {
	s := fmt.Sprintf("era=%d seq=%d uncached=%d churn=%d/%d faults=%d/%d/%d dead=%d",
		i.Era, i.Seq, i.Uncached, i.ChurnEvents, i.ChurnSkipped,
		i.FaultEvents, i.RecoverEvents, i.FaultSkipped, i.DeadNodes)
	if i.ArrivalEvents > 0 || i.ArrivalSkipped > 0 || i.Vacant > 0 {
		s += fmt.Sprintf(" arrivals=%d/%d vacant=%d", i.ArrivalEvents, i.ArrivalSkipped, i.Vacant)
	}
	return s
}

// RequestStream returns the request generation streams for trial era
// t: a dedicated origin RNG and file RNG, exactly the streams
// RunTrial(t) consumes. The served loadgen replays them through
// dist.RequestBatch, which draws all origins then all files per batch —
// so any batch partition of the same request count consumes the streams
// identically (the chunk-partition invariance the golden pin leans on).
func (w *World) RequestStream(t uint64) (originRNG, fileRNG *rand.Rand) {
	var ro, rf reseedRand
	return ro.stream(w.originSrc, t), rf.stream(w.fileSrc, t)
}

// AssignSeed returns the per-trial seed pair of the assignment stream —
// the stream the strategies draw candidate picks and tie breaks from in
// RunTrial(t). A single served context seeded with it reproduces the
// batch trial's decision sequence exactly.
func (w *World) AssignSeed(t uint64) (uint64, uint64) {
	return w.assignSrc.StreamSeed(t)
}

// Requests returns the per-trial request count the world was compiled
// for (Config.Requests, defaulted to one request per server).
func (w *World) Requests() int { return w.nReq }
