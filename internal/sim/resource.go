package sim

import "time"

// Resource models a serially-shared device with a FIFO service discipline,
// such as a memory controller, a DMA engine, or a network link direction.
// Each use occupies the resource for a duration derived from a base latency
// plus a size-proportional bandwidth term; concurrent users queue.
//
// Resource does not block procs itself: Reserve returns the completion time
// so callers can either sleep until it (synchronous use) or schedule an
// event at it (asynchronous use). This keeps the model composable: a single
// operation often traverses several resources.
type Resource struct {
	k *Kernel
	// nextFree is the earliest time a new request can start service.
	nextFree Time
}

// NewResource returns an idle resource.
func NewResource(k *Kernel) *Resource { return &Resource{k: k} }

// Reserve queues a request of the given service duration and returns the
// time at which it completes.
func (r *Resource) Reserve(service time.Duration) Time {
	return r.ReserveAt(r.k.Now(), service)
}

// ReserveAt is like Reserve but for a request arriving at time at (>= now).
func (r *Resource) ReserveAt(at Time, service time.Duration) Time {
	if service < 0 {
		service = 0
	}
	start := at
	if r.nextFree > start {
		start = r.nextFree
	}
	end := start.Add(service)
	r.nextFree = end
	return end
}

// NextFree returns the earliest service start time for a new request.
func (r *Resource) NextFree() Time { return r.nextFree }

// Reset clears queueing state (used when a crashed device restarts).
func (r *Resource) Reset() { r.nextFree = r.k.Now() }

// CostModel converts a payload size to a service time using a base latency
// plus a bandwidth term. A zero-valued CostModel costs nothing.
type CostModel struct {
	// Base is the fixed per-operation latency.
	Base time.Duration
	// BytesPerSec is the throughput of the size-dependent part;
	// zero means the size-dependent part is free.
	BytesPerSec float64
}

// Cost returns the service time for n bytes.
func (c CostModel) Cost(n int) time.Duration {
	d := c.Base
	if c.BytesPerSec > 0 && n > 0 {
		d += time.Duration(float64(n) / c.BytesPerSec * 1e9)
	}
	return d
}
