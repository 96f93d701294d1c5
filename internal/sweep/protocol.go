package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/sim"
)

// The work-queue protocol is four POSTs and a GET, all JSON:
//
//	POST /v1/lease    {"worker":W}            → LeaseReply
//	POST /v1/renew    {"lease":N}             → 200 | 410 gone
//	POST /v1/complete ShardResult             → CompleteReply | 409 mismatch | 422 corrupt
//	POST /v1/fail     {"key":K,"error":E}     → 200
//	GET  /v1/status                           → Status
//
// A POST body is exactly one JSON document of its endpoint's shape:
// unknown fields, a second value or trailing data answer 400, and a body
// over 1 MiB answers 413.
//
// Completions are keyed by shard content hash, never by lease, so a
// worker can deliver a result to a coordinator that restarted (and
// re-leased the shard) since the work was handed out — the definition
// of at-least-once delivery with idempotent merge.

// LeaseRequest is the POST /v1/lease body.
type LeaseRequest struct {
	// Worker is a diagnostic worker identity (shown in status).
	Worker string `json:"worker"`
}

// LeaseReply is the POST /v1/lease answer. Exactly one of Shard, Done,
// Draining or "nothing available right now" (all fields zero) holds.
type LeaseReply struct {
	// Shard is the leased work unit, when one was available.
	Shard *Shard `json:"shard,omitempty"`
	// Lease identifies the grant for renewals.
	Lease uint64 `json:"lease,omitempty"`
	// TTLMillis is the lease duration; renew well inside it.
	TTLMillis int64 `json:"ttl_ms,omitempty"`
	// Done reports that every shard is finished: workers should exit.
	Done bool `json:"done,omitempty"`
	// Draining reports a coordinator shutting down: workers should exit
	// without waiting for Done.
	Draining bool `json:"draining,omitempty"`
}

// RenewRequest is the POST /v1/renew body.
type RenewRequest struct {
	// Lease is the grant being renewed.
	Lease uint64 `json:"lease"`
}

// FailRequest is the POST /v1/fail body: a worker reporting that a
// shard's execution errored (as opposed to the worker dying, which the
// lease deadline handles).
type FailRequest struct {
	// Key is the failed shard's content hash.
	Key string `json:"key"`
	// Error describes the failure.
	Error string `json:"error"`
}

// CompleteReply is the POST /v1/complete answer.
type CompleteReply struct {
	// Duplicate reports the result was already recorded (and verified
	// equal) — the normal outcome of a reassigned straggler finishing.
	Duplicate bool `json:"duplicate,omitempty"`
}

// Status is the GET /v1/status payload.
type Status struct {
	// SpecHash identifies the sweep being coordinated.
	SpecHash string `json:"spec_hash"`
	// Total counts all shards; Done/Leased/Pending/Failed partition it.
	Total   int `json:"total"`
	Done    int `json:"done"`
	Leased  int `json:"leased"`
	Pending int `json:"pending"`
	Failed  int `json:"failed"`
	// Draining reports a coordinator in graceful shutdown.
	Draining bool `json:"draining"`
}

// ShardResult is one completed shard: the block aggregate plus its own
// content hash, so duplicates verify equal byte-for-byte and a torn
// journal line is detected on recovery.
type ShardResult struct {
	// Key is the shard's content hash (Shard.Key).
	Key string `json:"key"`
	// Agg is the block's trial aggregate, folded in ascending trial
	// order (sim.World.RunBlock).
	Agg sim.Aggregate `json:"agg"`
	// Hash is the SHA-256 of the canonical JSON of Agg.
	Hash string `json:"hash"`
}

// aggHash computes the canonical content hash of an aggregate.
func aggHash(agg sim.Aggregate) string {
	b, err := json.Marshal(agg)
	if err != nil {
		panic(fmt.Sprintf("sweep: aggregate does not marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// NewShardResult stamps agg with its content hash for shard key.
func NewShardResult(key string, agg sim.Aggregate) ShardResult {
	return ShardResult{Key: key, Agg: agg, Hash: aggHash(agg)}
}

// Verify recomputes the result's content hash and reports corruption
// (a torn journal line, a buggy worker, or bit rot in transit) as an
// error wrapping ErrCorruptResult.
func (r ShardResult) Verify() error {
	if r.Key == "" {
		return fmt.Errorf("%w: no shard key", ErrCorruptResult)
	}
	if got := aggHash(r.Agg); got != r.Hash {
		return fmt.Errorf("%w: shard %.12s hash mismatch (got %.12s, want %.12s)", ErrCorruptResult, r.Key, got, r.Hash)
	}
	return nil
}
