package sim

// This file exports the shard-execution hooks the sweep orchestration
// layer (internal/sweep) builds on: the trial-block partition shared
// with Run/RunSeries and the block fold their workers and a remote
// sweep worker execute. Keeping the partition and the fold here — next
// to the engines that define them — is what lets a distributed sweep's
// merged artifact stay bit-identical to a single-process RunSeries run:
// both sides call the same code.

import (
	"fmt"
	"strings"
)

// BlockRange returns the half-open trial range [lo, hi) of block b when
// trials are partitioned into `blocks` contiguous blocks. It is the
// exact partition Run and RunSeries use for their parallel reduction,
// exported so a distributed sweep shards trials identically and its
// block-ordered merge reproduces the single-host merge bit for bit.
// blocks must be in [1, trials] and b in [0, blocks).
func BlockRange(trials, blocks, b int) (lo, hi int) {
	return trials * b / blocks, trials * (b + 1) / blocks
}

// RunBlock executes the contiguous trial block [lo, hi) and returns its
// aggregate, folding results in ascending trial order. It is the fold
// every Run/RunSeries worker runs for its blocks. A sweep worker
// (internal/sweep) folds each shard the same way, in ascending trial
// order on the Runner it keeps per compiled world, so its Aggregate is
// bit-identical to the corresponding in-process partial;
// TestRunBlockMatchesRun and the sweep chaos cmp in CI check that the
// folds agree. Safe for concurrent use (runners are pooled internally).
func (w *World) RunBlock(lo, hi uint64) Aggregate {
	var agg Aggregate
	r := w.pooledRunner()
	for t := lo; t < hi; t++ {
		agg.Add(r.RunTrial(t))
	}
	w.runners.Put(r)
	return agg
}

// CheckBarriers reports whether a batch trial of cfg reaches a chunk
// barrier when cfg runs a barrier process. Churn, faults and node
// arrivals (HeteroArrival) act only at the barriers between two pipeline
// chunks, so a trial whose requests fit in one chunk would run none of
// them and report zero events. The batch front doors that take user
// input — cmd/cachesim and sweep specs — call it next to validation.
// Served mode is exempt: Snapshot.Advance applies the processes at its
// own batch cadence, whatever the chunk.
func CheckBarriers(cfg Config) error {
	requests, chunk := cfg.Requests, cfg.Chunk
	if requests == 0 {
		requests = cfg.N()
	}
	if chunk == 0 {
		chunk = defaultChunk
	}
	if !cfg.MutatesMidTrial() || requests > chunk {
		return nil
	}
	var procs []string
	if cfg.Churn != ChurnNone {
		procs = append(procs, "churn")
	}
	if cfg.Faults != FaultsNone {
		procs = append(procs, "faults")
	}
	if cfg.Hetero == HeteroArrival {
		procs = append(procs, "arrivals")
	}
	return fmt.Errorf("sim: %s events occur only between pipeline chunks, but all %d requests fit in one %d-request chunk; raise -requests above -chunk or lower -chunk below -requests",
		strings.Join(procs, " and "), requests, chunk)
}
