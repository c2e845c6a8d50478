package rpc

import (
	"testing"
	"time"

	"prdma/internal/sim"
)

func TestCallAsyncPipelinesWrites(t *testing.T) {
	b := newBench(t, 1024, func(c *Config) { c.ProcessingTime = 50 * time.Microsecond }, nil)
	c := b.client(WFlushRPC).(AsyncClient)
	const depth = 8
	b.run(t, func(p *sim.Proc) {
		start := p.Now()
		pendings := make([]*Pending, depth)
		for i := range pendings {
			pend, err := c.CallAsync(p, &Request{Op: OpWrite, Key: uint64(i), Size: 1024})
			if err != nil {
				t.Fatal(err)
			}
			pendings[i] = pend
		}
		issued := p.Now().Sub(start)
		// Issuing 8 writes asynchronously must cost far less than 8
		// serial persists (the whole point of the async API).
		if issued > 20*time.Microsecond {
			t.Errorf("async issue of %d writes took %v", depth, issued)
		}
		for _, pend := range pendings {
			at := pend.Durable.Wait(p)
			if at == 0 {
				t.Fatal("no durability time")
			}
		}
		// Processing (50us each) still completes eventually.
		for _, pend := range pendings {
			pend.Done.Wait(p)
		}
	})
	if b.s.Handled != depth {
		t.Fatalf("handled %d of %d", b.s.Handled, depth)
	}
}

func TestCallAsyncDurableBeforeDone(t *testing.T) {
	b := newBench(t, 2048, func(c *Config) { c.ProcessingTime = 80 * time.Microsecond }, nil)
	c := b.client(WRFlushRPC).(AsyncClient)
	b.run(t, func(p *sim.Proc) {
		pend, err := c.CallAsync(p, &Request{Op: OpWrite, Key: 1, Size: 2048})
		if err != nil {
			t.Fatal(err)
		}
		durAt := pend.Durable.Wait(p)
		doneAt := pend.Done.Wait(p)
		if doneAt < durAt.Add(50*time.Microsecond) {
			t.Errorf("done (%v) should lag durable (%v) by the processing time", doneAt, durAt)
		}
	})
}
