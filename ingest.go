package repro

import (
	"time"

	"repro/internal/ingest"
)

// ErrIntakeFull is returned by Fleet.Enqueue when admitting a network's
// sub-batch would overflow its shard's queue. The whole sub-batch is
// shed (admission is all-or-nothing), so accepted and shed counts always
// reconcile with the events offered; callers surface the backpressure
// (HTTP 429 + Retry-After in cmd/dtrd) and retry.
var ErrIntakeFull = ingest.ErrFull

// ErrIntakeClosed is returned by Fleet.Enqueue after the fleet has begun
// closing.
var ErrIntakeClosed = ingest.ErrClosed

// IntakeOptions bounds and tunes the intake queue of every fleet shard.
type IntakeOptions struct {
	// Capacity is the maximum number of queued events (not batches);
	// an Enqueue that would exceed it fails whole with ErrIntakeFull.
	// Default 4096.
	Capacity int
	// MaxBatch caps the events coalesced into one selector delivery.
	// Default 1024.
	MaxBatch int
	// RetryAfter is the backpressure hint surfaced to shed producers.
	// Default 1s.
	RetryAfter time.Duration
}

// IntakeStats is a consistent snapshot of an intake's counters;
// Accepted + Shed equals the events offered, and Accepted - Delivered
// equals Depth plus any in-flight delivery.
type IntakeStats struct {
	Accepted  uint64
	Shed      uint64
	Delivered uint64
	Depth     int
}
