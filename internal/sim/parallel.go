package sim

import (
	"fmt"
	"runtime"
	"sync"
)

// resolveWorkers applies RunSeries' worker-count defaulting:
// non-positive means GOMAXPROCS, and a single configuration's trials are
// never split across more blocks than there are trials (the block
// partition is part of the deterministic reduction order).
func resolveWorkers(workers, trials int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	return workers
}

// Run executes trials independent trials of cfg across a worker pool and
// returns the merged aggregate: RunSeries of the one configuration. The
// world is compiled once and shared, and each trial has its own
// deterministic RNG streams, so the result is identical for any worker
// count (workers ≤ 0 uses GOMAXPROCS).
func Run(cfg Config, trials, workers int) (Aggregate, error) {
	aggs, err := RunSeries([]Config{cfg}, trials, workers)
	if err != nil {
		return Aggregate{}, err
	}
	return aggs[0], nil
}

// RunSeries executes trials independent trials of each of cfgs (one
// experiment curve), fanning configurations AND trials out across one
// shared worker pool, so a sweep with many cheap points saturates all
// cores instead of parallelizing only within a point. Results are
// returned in input order and are bit-identical to calling Run(cfg,
// trials, workers) per point: each point's trials are cut into the same
// static blocks (BlockRange over min(workers, trials) blocks), each
// block folds through World.RunBlock, and a point's blocks merge in
// block order; only the scheduling of the blocks is shared. A non-nil
// error aborts the series.
func RunSeries(cfgs []Config, trials, workers int) ([]Aggregate, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	if trials <= 0 {
		return nil, fmt.Errorf("sim: trials must be positive, got %d", trials)
	}
	worlds := make([]*World, len(cfgs))
	for i, cfg := range cfgs {
		w, err := Compile(cfg)
		if err != nil {
			return nil, fmt.Errorf("sim: point %d (%+v): %w", i, cfg, err)
		}
		worlds[i] = w
	}
	workers = resolveWorkers(workers, trials*len(cfgs))
	blocks := resolveWorkers(workers, trials) // per-point partition

	type task struct {
		point, block, lo, hi int
	}
	tasks := make([]task, 0, len(cfgs)*blocks)
	for i := range cfgs {
		for b := 0; b < blocks; b++ {
			lo, hi := BlockRange(trials, blocks, b)
			tasks = append(tasks, task{point: i, block: b, lo: lo, hi: hi})
		}
	}

	partials := make([][]Aggregate, len(cfgs))
	for i := range partials {
		partials[i] = make([]Aggregate, blocks)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := range next {
				tk := tasks[ti]
				partials[tk.point][tk.block] = worlds[tk.point].RunBlock(uint64(tk.lo), uint64(tk.hi))
			}
		}()
	}
	for ti := range tasks {
		next <- ti
	}
	close(next)
	wg.Wait()

	out := make([]Aggregate, len(cfgs))
	for i := range cfgs {
		for b := 0; b < blocks; b++ {
			out[i].Merge(partials[i][b])
		}
	}
	return out, nil
}
