package sim

import (
	"math/rand/v2"

	"repro/internal/cache"
)

// The fault phase of the request pipeline (robustness regime): after a
// chunk of requests is assigned and accounted, the node liveness mask
// mutates before the next chunk is generated — exactly the churn
// discipline, so strategies never observe a half-applied failure and
// every candidate enumeration sees a consistent mask.
//
// Crash and recovery events are scheduled by fractional credit
// accumulators (FaultRate and RecoverRate expected events per request,
// exact over the trial) and drawn from a dedicated per-trial fault
// stream (xrand namespace 7), making the failure schedule a seeded
// process independent of the placement, request and churn streams:
// FaultsNone never derives the stream and stays bit-identical to the
// fault-free engine, and the schedule itself is invariant across
// Workers and Strategy (pinned by TestFaultScheduleIndexInvariant).
//
//   - FaultsCrash kills a uniform live node per crash event and revives
//     a uniform dead node per recovery event (MTTR-style re-admission);
//     draws are O(1) through the liveness permutation.
//   - FaultsRegional kills every live node of a uniform tile-aligned
//     region (the World's regionTiling failure domains, regionSize), and
//     revives every dead node of a uniform region — correlated failures
//     with the same O(1)-per-node cost.
//
// An event that finds nothing to kill (no live node, or a fully dead
// region) or nothing to revive is dropped and counted in
// Result.FaultSkipped. Load carried by a node at the instant it crashes
// is accounted into Result.DeadLoad — work the failure stranded.
//
// Like churn, the schedule state lives in faultState, part of the trial
// state (trial.go) the batch engine's Runner and the served mode's
// sim.Snapshot share (see snapshot.go, internal/serve).

// faultState is the fault-schedule state of one liveness mask: the
// fractional crash and recovery event credits carried between
// applications.
type faultState struct {
	crashCredit   float64
	recoverCredit float64
}

// reset zeroes both event credits (the trial-start state).
func (fs *faultState) reset() { fs.crashCredit, fs.recoverCredit = 0, 0 }

// nodeLoad reads node u's current load for the DeadLoad account. Both
// trial loops apply every load to the one vector before a barrier runs.
func (r *Runner) nodeLoad(u int32) int { return r.loads.Load(int(u)) }

// apply executes the schedule accrued by c elapsed requests against lv,
// counting outcomes into res. Crash events drain before recovery events
// within an application — the order is part of the seeded process
// frozen by the golden table's fault pins. loadOf reads a node's load at
// its crash instant for the DeadLoad account; nil skips that account (the
// served mode, where loads live in per-connection contexts rather than
// one engine vector).
func (fs *faultState) apply(w *World, lv *cache.Liveness, rng *rand.Rand, c int, loadOf func(int32) int, res *Result) {
	fs.crashCredit += w.cfg.FaultRate * float64(c)
	fs.recoverCredit += w.cfg.RecoverRate * float64(c)
	for ; fs.crashCredit >= 1; fs.crashCredit-- {
		crashEvent(w, lv, rng, loadOf, res)
	}
	for ; fs.recoverCredit >= 1; fs.recoverCredit-- {
		recoverEvent(w, lv, rng, res)
	}
}

// crashEvent executes one crash: a uniform live node (FaultsCrash) or
// every live node of a uniform region (FaultsRegional).
func crashEvent(w *World, lv *cache.Liveness, rng *rand.Rand, loadOf func(int32) int, res *Result) {
	switch w.cfg.Faults {
	case FaultsCrash:
		if lv.LiveCount() == 0 {
			res.FaultSkipped++
			return
		}
		u := lv.LiveAt(rng.IntN(lv.LiveCount()))
		if loadOf != nil {
			res.DeadLoad += loadOf(u)
		}
		lv.Kill(u)
		res.FaultEvents++
	case FaultsRegional:
		tl := w.regionTiling
		tid := int32(rng.IntN(tl.Tiles()))
		members := tl.Order()[tl.OrderOff()[tid]:tl.OrderOff()[tid+1]]
		killed := false
		for _, u := range members {
			if lv.Live(int(u)) {
				if loadOf != nil {
					res.DeadLoad += loadOf(u)
				}
				lv.Kill(u)
				killed = true
			}
		}
		if !killed {
			res.FaultSkipped++
			return
		}
		res.FaultEvents++
	}
}

// recoverEvent executes one recovery: a uniform dead node (FaultsCrash)
// or every dead node of a uniform region (FaultsRegional).
func recoverEvent(w *World, lv *cache.Liveness, rng *rand.Rand, res *Result) {
	switch w.cfg.Faults {
	case FaultsCrash:
		if lv.DeadCount() == 0 {
			res.FaultSkipped++
			return
		}
		lv.Revive(lv.DeadAt(rng.IntN(lv.DeadCount())))
		res.RecoverEvents++
	case FaultsRegional:
		tl := w.regionTiling
		tid := int32(rng.IntN(tl.Tiles()))
		members := tl.Order()[tl.OrderOff()[tid]:tl.OrderOff()[tid+1]]
		revived := false
		for _, u := range members {
			if !lv.Live(int(u)) {
				lv.Revive(u)
				revived = true
			}
		}
		if !revived {
			res.FaultSkipped++
			return
		}
		res.RecoverEvents++
	}
}

// finishFaults stamps the trial's fault summary: the end-of-trial dead
// population and the availability ratio — the fraction of requests the
// cache network itself served (everything that did not fall through to
// backhaul at the origin). A no-op under FaultsNone, whose Results stay
// bit-identical to the fault-free engine.
func (r *Runner) finishFaults(res *Result) {
	if r.live == nil {
		return
	}
	res.Faulted = true
	res.DeadNodes = r.live.DeadCount()
	if res.Requests > 0 {
		res.Availability = float64(res.Requests-res.Backhaul) / float64(res.Requests)
	}
}
