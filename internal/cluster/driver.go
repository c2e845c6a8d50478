package cluster

import "prdma/internal/sim"

// Driver is the one mid-run crash driver. From driver context, at window
// barriers, it steps a single-gateway deployment's engine under its failover
// controller and load, crashes replicas, restarts each one P.Restart after
// its crash, and finally stops the controller and drains the engine. Window
// barriers are the only place a crash may land: no kernel is mid-event, and
// with identical inputs the i-th window covers the same events at any worker
// count, so a run is byte-identical at any worker count.
//
// The first crash to fire takes the engine's Serialize token, and the
// driver gives it back at the first barrier where nothing is left to inject
// and the cluster is healthy (or in Drain, if the run ends first): every
// window from the crash to readmission runs as one global event merge,
// which is what legalizes the controller's cross-partition reestablish,
// quiesce and drain choreography, and the windows after it run parallel
// again.
type Driver struct {
	c    *PCluster
	ct   *Controller
	load *LoadRun
	pend []injection
	// serialized is set while the driver holds the Serialize token.
	serialized bool

	// LoadDone is the window at whose barrier Run first saw the load
	// finished (0 until then).
	LoadDone uint64
}

// injection is a pending crash or restart, fired at the first window
// barrier at or past its due time.
type injection struct {
	due   sim.Time
	crash bool
	s, r  int
}

// NewDriver returns a driver for c running load under the controller ct.
func NewDriver(c *PCluster, ct *Controller, load *LoadRun) *Driver {
	return &Driver{c: c, ct: ct, load: load}
}

// StepTo advances the engine to exactly window w (a no-op if already past;
// it stops early if the engine goes quiescent before w).
func (d *Driver) StepTo(w uint64) {
	eng := d.c.Eng
	for eng.Windows() < w {
		n := int(w - eng.Windows())
		if n > 4096 {
			n = 4096
		}
		if eng.RunWindows(n) == 0 {
			return
		}
	}
}

// Crash queues a crash of replica r of shard s for the first barrier Run
// reaches at or past at; the replica restarts at the first barrier P.Restart
// after the crash fired.
func (d *Driver) Crash(at sim.Time, s, r int) {
	d.pend = append(d.pend, injection{due: at, crash: true, s: s, r: r})
}

// Settled reports whether every queued crash and restart has fired, the
// load has finished and the cluster is healthy.
func (d *Driver) Settled() bool {
	return len(d.pend) == 0 && d.load.Done() && d.c.Healthy()
}

// Run fires due crashes and restarts, gives back the Serialize token once
// the outage is over, and steps the engine 16 windows at a time until until
// holds at a barrier, the latest clock reaches end, or the engine goes
// quiescent. It returns at a window barrier.
func (d *Driver) Run(until func() bool, end sim.Time) {
	for {
		now := d.c.Now()
		d.fire(now)
		if d.serialized && len(d.pend) == 0 && d.c.Healthy() {
			d.release()
		}
		if d.LoadDone == 0 && d.load.Done() {
			d.LoadDone = d.c.Eng.Windows()
		}
		if until() || now >= end || d.c.Eng.RunWindows(16) == 0 {
			return
		}
	}
}

// fire runs every injection due at now; a crash queues its restart.
func (d *Driver) fire(now sim.Time) {
	for i := 0; i < len(d.pend); {
		inj := d.pend[i]
		if inj.due > now {
			i++
			continue
		}
		d.pend = append(d.pend[:i], d.pend[i+1:]...)
		if inj.crash {
			if !d.serialized {
				d.c.Eng.Serialize()
				d.serialized = true
			}
			d.c.CrashReplica(inj.s, inj.r)
			d.pend = append(d.pend, injection{due: now.Add(d.c.P.Restart), s: inj.s, r: inj.r})
		} else {
			d.c.RestartReplica(inj.s, inj.r)
		}
		i = 0
	}
}

// Drain stops the controller, runs the engine until it is quiescent or the
// latest clock reaches end (bounded, in case an auxiliary proc is still
// polling), and gives back the Serialize token if the driver still holds
// it.
func (d *Driver) Drain(end sim.Time) {
	d.ct.Stop()
	for d.c.Now() < end && d.c.Eng.RunWindows(256) != 0 {
	}
	d.release()
}

// release gives back the Serialize token if the driver holds it.
func (d *Driver) release() {
	if d.serialized {
		d.c.Eng.Unserialize()
		d.serialized = false
	}
}
