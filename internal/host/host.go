// Package host assembles one machine of the testbed — CPU cores, DRAM, PM,
// LLC, and an RNIC — and models the software costs the paper's breakdown
// (Fig. 20) attributes to the sender and receiver: posting work requests,
// polling completion/message buffers, dispatching handlers and memcpy. A
// load factor inflates software costs to reproduce the
// busy-sender/busy-receiver experiments (Figs. 15 and 16).
package host

import (
	"time"

	"prdma/internal/cache"
	"prdma/internal/dram"
	"prdma/internal/fabric"
	"prdma/internal/pmem"
	"prdma/internal/rnic"
	"prdma/internal/sim"
)

// Address-space layout: every host maps PM low and DRAM high, and DRAM is
// two regions with an arena each. The message region holds what peers only
// write or send into: request and response rings, receive buffers and
// flag rings. It is registered remote-write-only, so software reads those
// bytes from their completions and the NIC stores none of them in DRAM.
// The readable region holds what a peer fetches with one-sided reads: RFP's
// result ring and ScaleRPC's staging buffer. It is registered with full
// remote access, and it is all that host DRAM holds. The regions are
// sparse, so the sizes are generous.
const (
	PMBase   = int64(0)
	PMSize   = int64(1) << 40
	MsgBase  = int64(1) << 44
	MsgSize  = int64(1) << 40
	ReadBase = MsgBase + MsgSize
	ReadSize = int64(1) << 40
)

// Params configures the software-cost model of one host.
type Params struct {
	// PostWR is the CPU cost of posting one work request (doorbell).
	PostWR time.Duration
	// PollDetect is the latency from data landing in a polled buffer to
	// the polling thread noticing it.
	PollDetect time.Duration
	// Dispatch is the cost of handing a request to a worker.
	Dispatch time.Duration
	// MemcpyBytesPerSec is the DRAM-to-DRAM copy bandwidth.
	MemcpyBytesPerSec float64
	// LoadFactor scales all software costs; 1 = idle host. The busy-CPU
	// experiments use ~4.
	LoadFactor float64
	// JitterSigma adds log-normal jitter (sigma of the underlying normal)
	// to software costs; this is what gives RPC latency its tail.
	JitterSigma float64
}

// DefaultParams returns the Xeon-like defaults from DESIGN.md §4.
func DefaultParams() Params {
	return Params{
		PostWR:            200 * time.Nanosecond,
		PollDetect:        300 * time.Nanosecond,
		Dispatch:          500 * time.Nanosecond,
		MemcpyBytesPerSec: 10e9,
		LoadFactor:        1.0,
		JitterSigma:       0.25,
	}
}

// Host is one machine.
type Host struct {
	K      *sim.Kernel
	Name   string
	Params Params

	PM   *pmem.Device
	LLC  *cache.LLC
	DRAM *dram.Memory
	NIC  *rnic.NIC

	// PMArena hands out PM addresses; MsgArena and ReadArena hand out
	// addresses in the message and readable DRAM regions.
	PMArena   *pmem.Arena
	MsgArena  *pmem.Arena
	ReadArena *pmem.Arena

	rng *sim.Rand

	// Crashes counts host failures (for the recovery experiments).
	Crashes int
	// SWTime accumulates all software-model time spent on this host; the
	// Fig. 20 breakdown divides it by operations.
	SWTime time.Duration
}

// New builds a host and attaches its NIC to net.
func New(k *sim.Kernel, name string, net *fabric.Network, hp Params, pp pmem.Params, np rnic.Params) *Host {
	h := &Host{K: k, Name: name, Params: hp, rng: sim.NewRand(hashName(name))}
	h.PM = pmem.New(k, pp)
	h.LLC = cache.New(k, h.PM)
	h.DRAM = dram.New()
	h.NIC = rnic.New(k, name, net, h.PM, h.LLC, h.DRAM, np)
	h.registerMRs()
	h.PMArena = pmem.NewArena(PMBase, PMSize)
	h.MsgArena = pmem.NewArena(MsgBase, MsgSize)
	h.ReadArena = pmem.NewArena(ReadBase, ReadSize)
	return h
}

// registerMRs registers PM and the readable DRAM region with full remote
// access and the message region remote-write-only (see the layout above).
func (h *Host) registerMRs() {
	h.NIC.RegisterMR(PMBase, PMSize, rnic.MemPM)
	h.NIC.RegisterMRProt(MsgBase, MsgSize, rnic.MemDRAM, true, false)
	h.NIC.RegisterMR(ReadBase, ReadSize, rnic.MemDRAM)
}

func hashName(s string) uint64 {
	var x uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= 1099511628211
	}
	return x
}

// cost scales d by the load factor and jitter.
func (h *Host) cost(d time.Duration) time.Duration {
	lf := h.Params.LoadFactor
	if lf <= 0 {
		lf = 1
	}
	out := time.Duration(float64(d) * lf)
	if s := h.Params.JitterSigma; s > 0 && out > 0 {
		// Normalize the log-normal so its mean is 1.
		j := h.rng.LogNorm(-s*s/2, s)
		out = time.Duration(float64(out) * j)
	}
	return out
}

// A software charge has up to two forms: a blocking one that sleeps a
// proc, for the callers that are procs (clients and drivers), and a Func
// one that schedules fn when the charge has elapsed, for the receive loops
// and servers that run as kernel callbacks. Both draw the jitter and
// account SWTime at the same instant, and both schedule exactly one event
// at the same time (a negative charge clamps to zero in either), so a loop
// may switch forms without moving any simulated event.

// spend sleeps p for d and accounts it as software time.
func (h *Host) spend(p *sim.Proc, d time.Duration) {
	h.SWTime += d
	p.Sleep(d)
}

// spendFunc runs fn after d and accounts d as software time.
func (h *Host) spendFunc(d time.Duration, fn func()) {
	h.SWTime += d
	h.K.AfterFunc(d, fn)
}

// Compute burns d of CPU time (scaled by load and jitter) on proc p.
func (h *Host) Compute(p *sim.Proc, d time.Duration) {
	h.spend(p, h.cost(d))
}

// ComputeFunc burns d of CPU time like Compute, then runs fn.
func (h *Host) ComputeFunc(d time.Duration, fn func()) {
	h.spendFunc(h.cost(d), fn)
}

// ComputeExactFunc burns exactly d — no load scaling, no jitter — then runs
// fn. It charges injected workload components that the paper holds
// constant (the 100 µs "RPC processing" of Fig. 8).
func (h *Host) ComputeExactFunc(d time.Duration, fn func()) {
	h.spendFunc(d, fn)
}

// Post charges the work-request posting cost.
func (h *Host) Post(p *sim.Proc) { h.spend(p, h.cost(h.Params.PostWR)) }

// PostFunc charges the work-request posting cost, then runs fn.
func (h *Host) PostFunc(fn func()) { h.spendFunc(h.cost(h.Params.PostWR), fn) }

// PollDelayFunc charges the polling-detection latency, then runs fn.
func (h *Host) PollDelayFunc(fn func()) { h.spendFunc(h.cost(h.Params.PollDetect), fn) }

// DispatchFunc charges the handler hand-off cost, then runs fn.
func (h *Host) DispatchFunc(fn func()) { h.spendFunc(h.cost(h.Params.Dispatch), fn) }

// MemcpyFunc charges a CPU copy of n bytes, then runs fn.
func (h *Host) MemcpyFunc(n int, fn func()) {
	c := sim.CostModel{BytesPerSec: h.Params.MemcpyBytesPerSec}
	h.spendFunc(h.cost(c.Cost(n)), fn)
}

// Crash fails the host: NIC SRAM, LLC and DRAM contents are lost; PM
// survives. The caller is responsible for restart choreography.
func (h *Host) Crash() {
	h.Crashes++
	h.NIC.Crash()
	h.PM.Crash()
	h.LLC.Crash()
	h.DRAM.Crash()
}

// Restart brings the NIC back up. Applications re-create QPs and rebuild
// volatile state (from PM where they can — that is the point of the paper).
func (h *Host) Restart() {
	h.NIC.Restart()
	h.registerMRs()
}
