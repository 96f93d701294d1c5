package sim

import (
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/ballsbins"
	"repro/internal/core"
	"repro/internal/dist"
)

// replayTrial reruns trial t of w through the served-mode state machine:
// compile a Snapshot, generate requests from the split-discipline
// streams, assign through a snapshot-bound strategy with the trial's
// assignment stream (comparing loads through the snapshot's capacity-
// weighted view, Snapshot.WrapLoads), and Advance the snapshot at every
// chunk barrier —
// the exact sequence the daemon's mutator and decision contexts execute
// between them. Returns the replayed Result scalars (DeadLoad excluded:
// the served mutation path does not account stranded load).
func replayTrial(t *testing.T, w *World, trial uint64) Result {
	t.Helper()
	s := w.Snapshot(trial)
	strat := s.NewStrategy()
	pop := s.FileSampler()
	loads := ballsbins.NewLoads(w.N())
	view := s.WrapLoads(loads)
	originRNG, fileRNG := w.RequestStream(trial)
	s1, s2 := w.AssignSeed(trial)
	assignRNG := rand.New(rand.NewPCG(s1, s2))

	nReq := w.Requests()
	chunk := min(w.chunk, nReq)
	origins := make([]int32, chunk)
	files := make([]int32, chunk)
	res := Result{Requests: nReq, Uncached: s.p.UncachedCount()}
	var hops float64
	for base := 0; base < nReq; base += chunk {
		c := min(chunk, nReq-base)
		dist.RequestBatch(originRNG, fileRNG, w.N(), pop, origins[:c], files[:c])
		for i := 0; i < c; i++ {
			a := strat.Assign(core.Request{Origin: origins[i], File: files[i]}, view, assignRNG)
			loads.Add(int(a.Server))
			hops += float64(a.Hops)
			if a.Escalated {
				res.Escalated++
			}
			if a.Backhaul {
				res.Backhaul++
			}
			if a.Retried {
				res.Retried++
			}
		}
		if base+c < nReq {
			s.Advance(c)
			strat = s.Bind(strat)
		}
	}
	res.MaxLoad = loads.Max()
	if nReq > 0 {
		res.MeanCost = hops / float64(nReq)
	}
	info := s.Info()
	res.ChurnEvents, res.ChurnSkipped = info.ChurnEvents, info.ChurnSkipped
	res.FaultEvents, res.RecoverEvents = info.FaultEvents, info.RecoverEvents
	res.FaultSkipped, res.DeadNodes = info.FaultSkipped, info.DeadNodes
	res.ArrivalEvents, res.ArrivalSkipped, res.Vacant = info.ArrivalEvents, info.ArrivalSkipped, info.Vacant
	return res
}

// snapshotReplayConfigs spans the regimes the served mode must
// reproduce: quiesced, both churn modes, both fault modes, a combined
// storm, the tile index on and off, the conditioned miss stream, both
// heterogeneity regimes, and node arrivals under drift churn and
// crashes.
func snapshotReplayConfigs() map[string]Config {
	base := Config{
		Side: 12, K: 100, M: 3, Requests: 600, Seed: 99,
		Strategy:   StrategySpec{Kind: TwoChoices, Radius: 3},
		Popularity: PopSpec{Kind: PopZipf, Gamma: 0.8},
		Streams:    StreamsSplit,
		Chunk:      128,
	}
	cfgs := map[string]Config{"quiesced": base}

	c := base
	c.Index = IndexTiles
	cfgs["indexed"] = c

	c = base
	c.Index = IndexTiles
	c.Churn = ChurnReplicas
	c.ChurnRate = 0.05
	cfgs["churn-replicas"] = c

	c = base
	c.Churn = ChurnDrift
	c.ChurnRate = 0.05
	cfgs["churn-drift"] = c

	c = base
	c.Index = IndexTiles
	c.MissPolicy = MissEscalate
	c.Faults = FaultsCrash
	c.FaultRate = 0.01
	c.RecoverRate = 0.005
	cfgs["faults-crash"] = c

	c = base
	c.MissPolicy = MissEscalate
	c.Faults = FaultsRegional
	c.FaultRate = 0.002
	cfgs["faults-regional"] = c

	c = base
	c.Index = IndexTiles
	c.MissPolicy = MissEscalate
	c.Churn = ChurnReplicas
	c.ChurnRate = 0.05
	c.Faults = FaultsCrash
	c.FaultRate = 0.01
	c.RecoverRate = 0.005
	cfgs["storm"] = c

	c = base
	c.K = 4000 // K ≫ n·M: some files stay uncached
	c.MissPolicy = MissResample
	cfgs["miss-resample"] = c

	c = base
	c.Hetero = HeteroCapacity
	c.Profile = ProfileTwoTier
	cfgs["hetero-capacity"] = c

	c = base
	c.MissPolicy = MissEscalate
	c.Hetero = HeteroArrival
	c.Profile = ProfilePowerLaw
	c.ArrivalRate = 0.05
	cfgs["hetero-arrival"] = c

	c.Churn = ChurnDrift
	c.ChurnRate = 0.05
	c.Faults = FaultsCrash
	c.FaultRate = 0.01
	c.RecoverRate = 0.005
	cfgs["arrival-storm"] = c

	return cfgs
}

// TestSnapshotReplayMatchesTrial pins the served-mode state machine to
// the batch engine: for every regime, replaying a trial through
// Snapshot/Advance/Bind must reproduce RunTrial's decision scalars and
// event counts bit-identically.
func TestSnapshotReplayMatchesTrial(t *testing.T) {
	for name, cfg := range snapshotReplayConfigs() {
		t.Run(name, func(t *testing.T) {
			w, err := Compile(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for trial := uint64(0); trial < 3; trial++ {
				want := w.RunTrial(trial)
				got := replayTrial(t, w, trial)
				if got.MaxLoad != want.MaxLoad || got.MeanCost != want.MeanCost ||
					got.Escalated != want.Escalated || got.Backhaul != want.Backhaul ||
					got.Retried != want.Retried || got.Uncached != want.Uncached {
					t.Errorf("trial %d: replay %+v, want %+v", trial, got, want)
				}
				if got.ChurnEvents != want.ChurnEvents || got.ChurnSkipped != want.ChurnSkipped ||
					got.FaultEvents != want.FaultEvents || got.RecoverEvents != want.RecoverEvents ||
					got.FaultSkipped != want.FaultSkipped || got.DeadNodes != want.DeadNodes ||
					got.ArrivalEvents != want.ArrivalEvents || got.ArrivalSkipped != want.ArrivalSkipped ||
					got.Vacant != want.Vacant {
					t.Errorf("trial %d: replay events %+v, want %+v", trial, got, want)
				}
			}
		})
	}
}

// TestSnapshotPlacementMatchesRunner: a Runner and a Snapshot of one
// world build the same trial placement — node lists in order, replica
// CSR, cached set and tile index — because both arm a trialState. Only
// the mutating world sorts its node lists.
func TestSnapshotPlacementMatchesRunner(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		mutable bool
	}{
		{name: "quiesced", cfg: Config{Side: 12, K: 150, M: 3, Seed: 0x63,
			Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}}},
		{name: "mutating", mutable: true, cfg: Config{Side: 12, K: 150, M: 3, Seed: 0x63,
			Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, MissPolicy: MissEscalate,
			Churn: ChurnReplicas, ChurnRate: 0.5,
			Hetero: HeteroArrival, Profile: ProfilePowerLaw, ArrivalRate: 0.01}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := Compile(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := w.NewRunner()
			for trial := uint64(0); trial < 3; trial++ {
				r.arm(trial)
				got := r.p
				want := w.Snapshot(trial).Placement()
				if got.Mutable() != tc.mutable || want.Mutable() != tc.mutable {
					t.Fatalf("trial %d: Mutable runner %v, snapshot %v, want %v",
						trial, got.Mutable(), want.Mutable(), tc.mutable)
				}
				for u := 0; u < w.N(); u++ {
					if !slices.Equal(got.NodeFiles(u), want.NodeFiles(u)) || got.Cap(u) != want.Cap(u) {
						t.Fatalf("trial %d node %d: runner %v (cap %d), snapshot %v (cap %d)",
							trial, u, got.NodeFiles(u), got.Cap(u), want.NodeFiles(u), want.Cap(u))
					}
				}
				if !slices.Equal(got.CachedFiles(), want.CachedFiles()) {
					t.Fatalf("trial %d: cached sets differ", trial)
				}
				gi, wi := got.TileIndex(), want.TileIndex()
				if gi == nil || wi == nil {
					t.Fatalf("trial %d: tile index missing (runner %v, snapshot %v)", trial, gi != nil, wi != nil)
				}
				for j := 0; j < w.cfg.K; j++ {
					if !slices.Equal(got.Replicas(j), want.Replicas(j)) {
						t.Fatalf("trial %d file %d: replicas differ", trial, j)
					}
					if !slices.Equal(gi.FileBits(j), wi.FileBits(j)) {
						t.Fatalf("trial %d file %d: dense bitmaps differ", trial, j)
					}
					gt, gs := gi.FileRuns(j)
					wt, ws := wi.FileRuns(j)
					if !slices.Equal(gt, wt) || !slices.Equal(gs, ws) {
						t.Fatalf("trial %d file %d: tile directories differ", trial, j)
					}
				}
			}
		})
	}
}

// TestSnapshotCloneIsolation checks the copy-on-write contract: a clone
// taken mid-era keeps answering from its frozen state while the shadow
// advances underneath it.
func TestSnapshotCloneIsolation(t *testing.T) {
	cfg := snapshotReplayConfigs()["storm"]
	w, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := w.Snapshot(0)
	s.Advance(256)
	pub := s.Clone()
	if pub.Era() != s.Era() || pub.Seq() != s.Seq() {
		t.Fatalf("clone stamp %d/%d, want %d/%d", pub.Era(), pub.Seq(), s.Era(), s.Seq())
	}
	frozen := make([][]int32, 0, cfg.K)
	for j := 0; j < cfg.K; j++ {
		frozen = append(frozen, append([]int32(nil), pub.Placement().Replicas(j)...))
	}
	deadBefore := pub.Info().DeadNodes
	for i := 0; i < 50; i++ {
		s.Advance(256)
	}
	if s.Seq() != pub.Seq()+50 {
		t.Fatalf("shadow seq %d, want %d", s.Seq(), pub.Seq()+50)
	}
	for j := 0; j < cfg.K; j++ {
		got := pub.Placement().Replicas(j)
		if len(got) != len(frozen[j]) {
			t.Fatalf("file %d: clone replica count changed under shadow mutation", j)
		}
		for i := range got {
			if got[i] != frozen[j][i] {
				t.Fatalf("file %d: clone replicas changed under shadow mutation", j)
			}
		}
	}
	if pub.Info().DeadNodes != deadBefore {
		t.Fatal("clone liveness changed under shadow mutation")
	}
}

// TestSnapshotCloneInfo: the daemon publishes only clones, so a clone
// must report its shadow's stamp — the arrival counters and the count
// of still-vacant nodes included — before and after every Advance of a
// HeteroArrival era.
func TestSnapshotCloneInfo(t *testing.T) {
	w, err := Compile(Config{Side: 16, K: 200, M: 4, Seed: 1,
		Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, MissPolicy: MissEscalate,
		Hetero: HeteroArrival, Profile: ProfilePowerLaw, ArrivalRate: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	s := w.Snapshot(0)
	for i := 0; ; i++ {
		if got, want := s.Clone().Info(), s.Info(); got != want {
			t.Fatalf("seq %d: clone reports %v, shadow %v", s.Seq(), got, want)
		}
		if i == 40 {
			break
		}
		s.Advance(64)
	}
	if info := s.Info(); info.ArrivalEvents == 0 || info.Vacant == 0 {
		t.Fatalf("era ended at %v; the check needs arrivals and vacant nodes", info)
	}
}

// TestSnapshotInfoString pins the diagnostic stamp format shared by
// cachesim -v and the daemon.
func TestSnapshotInfoString(t *testing.T) {
	info := SnapshotInfo{Era: 2, Seq: 7, Uncached: 1, ChurnEvents: 30, ChurnSkipped: 4,
		FaultEvents: 5, RecoverEvents: 3, FaultSkipped: 1, DeadNodes: 2}
	got := info.String()
	want := "era=2 seq=7 uncached=1 churn=30/4 faults=5/3/1 dead=2"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if !strings.Contains(got, "era=") {
		t.Fatal("stamp must carry the era")
	}
}

// TestSnapshotQuiescedIsStable checks that with no churn or fault
// process, Advance is a pure sequence bump: no RNG is consumed and the
// state never changes, so a quiesced daemon serves one frozen placement
// forever.
func TestSnapshotQuiescedIsStable(t *testing.T) {
	w, err := Compile(snapshotReplayConfigs()["quiesced"])
	if err != nil {
		t.Fatal(err)
	}
	s := w.Snapshot(1)
	if s.Liveness() != nil {
		t.Fatal("quiesced snapshot must not carry a liveness mask")
	}
	before := s.Info()
	s.Advance(1 << 20)
	after := s.Info()
	if after.ChurnEvents != before.ChurnEvents || after.FaultEvents != before.FaultEvents {
		t.Fatalf("quiesced Advance applied events: %+v", after)
	}
	if after.Seq != before.Seq+1 {
		t.Fatalf("Seq = %d, want %d", after.Seq, before.Seq+1)
	}
	if math.IsNaN(float64(after.Era)) || after.Era != 1 {
		t.Fatalf("Era = %d, want 1", after.Era)
	}
}
