package bench

import (
	"fmt"
	"time"

	"prdma/internal/failure"
	"prdma/internal/rpc"
	"prdma/internal/sim"
	"prdma/internal/ycsb"
)

// fig12Availabilities are the x-axis points of Fig. 12.
var fig12Availabilities = []float64{0.99, 0.999, 0.9999, 0.99999}

// Fig12 reproduces Fig. 12: total execution time of read/write mixes using
// a durable RPC, normalized to a traditional RPC that must re-send
// incomplete requests after a failure. Per DESIGN.md, the driver measures
// clean throughput and per-crash recovery cost empirically, then
// extrapolates to the paper's 1e9-operation run at each availability.
func (o Options) Fig12() Table {
	t := Table{
		Title:  "Fig 12: normalized total time, W-RFlush-RPC vs re-send baseline (lower is better)",
		Header: []string{"availability", "100%Read", "50%R+50%W", "100%Write"},
		Notes:  "expect: <1 everywhere; lower with more writes; lower at lower availability",
	}
	mixes := []float64{1.0, 0.5, 0.0} // read fractions
	// W-RFlush is the durable representative: the paper recommends
	// receiver-initiated flushes under load (§5.7), and the emulated
	// WFlush's read-after-write probe serializes behind the DMA
	// backlog when requests are pipelined.
	//
	// Pipelining semantics: early persistence visibility is what
	// LICENSES pipelining mutations ("the sender can issue other RPC
	// requests without waiting for the completion event", §4.2) — a
	// traditional client must serialize dependent writes because it
	// cannot tell when they are safe. Reads are safe to overlap for
	// everyone. Baseline effective overlap: reads overlap freely;
	// writes serialize; a mix lands in between.
	cells := mapCells(o.runner(), len(mixes)*2, func(i int) failure.Measurement {
		rf := mixes[i/2]
		if i%2 == 0 {
			return o.failureRun(rpc.WRFlushRPC, rf, 8)
		}
		return o.failureRun(rpc.FaRM, rf, 1+int(rf*7))
	})
	durable := make([]failure.Measurement, len(mixes))
	baseline := make([]failure.Measurement, len(mixes))
	for i := range mixes {
		durable[i], baseline[i] = cells[i*2], cells[i*2+1]
	}
	const ops = int64(1e9)
	restart := 300 * time.Millisecond
	for _, a := range fig12Availabilities {
		row := []string{fmt.Sprintf("%.3f%%", a*100)}
		for i := range mixes {
			norm := float64(durable[i].ExpectedTotal(ops, a, restart)) /
				float64(baseline[i].ExpectedTotal(ops, a, restart))
			row = append(row, fmt.Sprintf("%.3f", norm))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// failureRun measures one (kind, read-fraction) failure configuration with
// the paper's real constants: ~300 ms unikernel restarts and the 100 ms
// RDMA re-transfer interval. Virtual time is cheap during the idle waits,
// so no scaling is needed.
func (o Options) failureRun(kind rpc.Kind, readFrac float64, pipeline int) failure.Measurement {
	// A small real per-request processing cost (the paper's workloads do
	// real work): the server is then the shared steady-state bottleneck
	// and the normalized ratio isolates persistence-path and recovery
	// differences.
	d := o.deploy(4096, workers(3), processing(5*time.Microsecond))
	m, _, err := d.mustBuild().failureLoop(kind, d, readFrac, failure.Params{
		Restart:      300 * time.Millisecond,
		Retransfer:   100 * time.Millisecond,
		Crashes:      5,
		OpsPerWindow: o.Ops/10 + 100,
		Pipeline:     pipeline,
	})
	if err != nil {
		panic(err)
	}
	return m
}

// failureLoop runs the failure workload on c, built from d with one sender:
// kind's recoverable client issues the read/write mix through a
// failure.Driver with fp, which crashes and restarts the server. Writes
// carry real bytes, so logged entries are recoverable. It returns the
// measurement and the virtual time the run took.
func (c *cluster) failureLoop(kind rpc.Kind, d *deployment, readFrac float64, fp failure.Params) (failure.Measurement, time.Duration, error) {
	client, ok := rpc.New(kind, c.cli[0], c.engine, d.cfg).(rpc.Recoverable)
	if !ok {
		return failure.Measurement{}, 0, fmt.Errorf("%v does not support crash recovery", kind)
	}
	drv := failure.NewDriver(c.k, c.server, c.engine, client, fp)
	mix := ycsb.NewMix(readFrac, int64(d.objects), d.objSize, d.seed)
	payload := make([]byte, d.objSize)
	var m failure.Measurement
	var start, end sim.Time
	c.k.Go("failure-driver", func(p *sim.Proc) {
		start = p.Now()
		m = drv.Run(p, func(int) *rpc.Request {
			req := mix.Next()
			if req.Op == rpc.OpWrite {
				req.Payload = payload
			} else {
				req.Payload = []byte{}
			}
			return req
		})
		end = p.Now()
	})
	c.k.Run()
	return m, end.Sub(start), nil
}
