// Package failure drives the §5.4 failure-recovery experiment (Fig. 12):
// RPC services deployed in unikernel-style VMs crash and restart in ~300 ms;
// clients retry on the RDMA re-transfer interval (100 ms). Durable RPCs
// replay persisted-but-unprocessed requests from the redo log after restart,
// so only not-yet-durable requests are re-sent; the traditional baseline
// re-sends every request whose completion it never observed.
//
// The client pipelines requests across a window of worker procs — the
// natural usage of durable RPCs, whose whole point is issuing ahead of
// processing. At a crash the baseline has a window's worth of unconfirmed
// requests to re-send (with their data), while the durable client's
// unconfirmed window is only as deep as the short persist-ack latency.
//
// The paper runs 1e9 operations per configuration; simulating that much
// virtual time is wasteful. The driver instead measures the clean per-op
// time and the actual per-crash overhead over several injected crashes,
// then extrapolates the expected total for any availability level — the
// quantity Fig. 12 normalizes (see Measurement.ExpectedTotal).
//
// Server is the crash protocol itself: crash, restart, and the rule the
// clients follow to re-establish the server after each restart. The crash
// sweep's durable-RPC and pool targets (internal/crashcheck) run the same
// one, so the sweep checks the recovery path the figure measures.
package failure

import (
	"time"

	"prdma/internal/host"
	"prdma/internal/rpc"
	"prdma/internal/sim"
)

// Params configures the failure experiment.
type Params struct {
	// Restart is the unikernel restart latency (paper: ~300 ms).
	Restart time.Duration
	// Retransfer is the RDMA packet re-transfer interval (paper: 100 ms).
	Retransfer time.Duration
	// Crashes is how many failures to inject while measuring.
	Crashes int
	// OpsPerWindow is how many operations run between injected crashes.
	OpsPerWindow int
	// Pipeline is the client-side issue window (worker procs).
	Pipeline int
}

// DefaultParams returns the paper's constants with a measurement-friendly
// crash count.
func DefaultParams() Params {
	return Params{
		Restart:      300 * time.Millisecond,
		Retransfer:   100 * time.Millisecond,
		Crashes:      6,
		OpsPerWindow: 240,
		Pipeline:     16,
	}
}

// Measurement is the outcome of one failure run.
type Measurement struct {
	Ops          int
	Crashes      int
	Replayed     int // ops recovered from the redo log (no client re-send)
	Resent       int // ops the client had to re-issue over the wire
	CleanPerOp   time.Duration
	PerCrashCost time.Duration // recovery overhead beyond the restart time
}

// Server is the single-server crash protocol: one server host that fails
// and restarts Restart later, and the rule its clients follow around it.
// Fig. 12's driver and the crash sweep's durable-RPC and pool targets all
// run it, so the sweep checks the recovery path the figure measures.
//
// Clients call Ready before every attempt. While the server is down Ready
// sleeps a re-transfer interval at a time. The first proc to find a new
// incarnation re-establishes it, and the others wait until that finishes;
// a re-establishment a crash interrupts is re-run once the server is back.
type Server struct {
	K *sim.Kernel
	// Host is the server machine; Crash restarts it Restart later.
	Host *host.Host
	// Fail crashes the host and every service on it.
	Fail func()
	// Reestablish re-establishes the clients against a new incarnation and
	// returns how many requests it replayed from the redo logs. A crash
	// that interrupts it must make it return an error.
	Reestablish func(p *sim.Proc) (int, error)
	// Restart is the restart latency; Retransfer the clients' re-transfer
	// interval, which Ready sleeps while the server is down.
	Restart, Retransfer time.Duration

	// Replayed totals the requests every re-establishment replayed.
	Replayed int

	down bool
	// generation counts restarts so exactly one proc re-establishes each
	// incarnation (reestGen is the last one it began on); reconnecting
	// holds the other procs off while the recovery scan, which takes media
	// read time, is in flight.
	generation, reestGen int
	reconnecting         bool
	// inRecovery, when armed, is how far into the next re-establishment
	// one more crash lands.
	inRecovery      time.Duration
	inRecoveryArmed bool
}

// Up reports whether the server is running (it may still await
// re-establishment).
func (s *Server) Up() bool { return !s.down }

// Crash fails the server and schedules its restart. A crash landing while
// the server is already down is ignored: a second restart would
// double-count the failure.
func (s *Server) Crash() {
	if s.down {
		return
	}
	s.down = true
	s.Fail()
	s.K.AfterFunc(s.Restart, func() {
		s.Host.Restart()
		s.down = false
		s.generation++
	})
}

// CrashInRecovery arms one more crash to land d after the next
// re-establishment begins: inside it when d is shorter than the recovery
// scan, else during the replay the scan started.
func (s *Server) CrashInRecovery(d time.Duration) {
	s.inRecovery, s.inRecoveryArmed = d, true
}

// Ready returns once the server is up and its current incarnation is
// re-established, re-establishing it on the calling proc if no proc has
// begun to.
func (s *Server) Ready(p *sim.Proc) {
	for {
		for s.down {
			p.Sleep(s.Retransfer)
		}
		if s.reestGen != s.generation {
			s.reestGen = s.generation
			s.reconnecting = true
			if s.inRecoveryArmed {
				s.inRecoveryArmed = false
				s.K.AfterFunc(s.inRecovery, s.Crash)
			}
			n, err := s.Reestablish(p)
			s.reconnecting = false
			s.Replayed += n
			if err != nil && !s.down && s.reestGen == s.generation {
				panic(err) // not a crash: a serial-kernel reestablish cannot refuse
			}
		}
		for s.reconnecting {
			p.Sleep(10 * time.Microsecond)
		}
		if !s.down && s.reestGen == s.generation {
			return
		}
	}
}

// Driver runs the workload against one Recoverable client, crashing its
// server mid-window.
type Driver struct {
	K      *sim.Kernel
	Server *Server
	Client rpc.Recoverable
	P      Params
}

// NewDriver wraps an established connection to engine on server.
func NewDriver(k *sim.Kernel, server *host.Host, engine *rpc.Server, client rpc.Recoverable, p Params) *Driver {
	if p.Pipeline <= 0 {
		p.Pipeline = 1
	}
	return &Driver{K: k, Client: client, P: p, Server: &Server{
		K: k, Host: server, Fail: func() { server.Crash(); engine.Crash() },
		Reestablish: client.Reestablish, Restart: p.Restart, Retransfer: p.Retransfer,
	}}
}

// callUntilDone drives one operation to completion across any number of
// crashes, counting re-sends.
func (d *Driver) callUntilDone(p *sim.Proc, req *rpc.Request, m *Measurement) {
	for attempt := 0; ; attempt++ {
		d.Server.Ready(p)
		if _, err := d.Client.CallTimeout(p, req, d.P.Retransfer); err == nil {
			m.Resent += attempt
			return
		}
	}
}

// window issues n ops (generated from offset) through the pipeline and
// waits for all of them.
func (d *Driver) window(p *sim.Proc, n, offset int, gen func(i int) *rpc.Request, m *Measurement) {
	wg := sim.NewWaitGroup(d.K)
	next := offset
	for w := 0; w < d.P.Pipeline; w++ {
		wg.Add(1)
		d.K.Go("failure-worker", func(wp *sim.Proc) {
			defer wg.Done()
			for {
				i := next
				if i >= offset+n {
					return
				}
				next++
				d.callUntilDone(wp, gen(i), m)
				m.Ops++
			}
		})
	}
	wg.Wait(p)
}

// Run executes the workload: one clean window to calibrate, then P.Crashes
// windows each with a crash injected mid-window while requests are in
// flight. gen supplies the i-th request.
func (d *Driver) Run(p *sim.Proc, gen func(i int) *rpc.Request) Measurement {
	var m Measurement

	cleanStart := p.Now()
	d.window(p, d.P.OpsPerWindow, 0, gen, &m)
	m.CleanPerOp = p.Now().Sub(cleanStart) / time.Duration(d.P.OpsPerWindow)

	var recoveryCost time.Duration
	for c := 0; c < d.P.Crashes; c++ {
		start := p.Now()
		// Crash strikes while the window's requests are in flight. The
		// timer is canceled once the window drains: a fast window must not
		// leave a live crash armed to fire into the next window (or after
		// Run returns), which would skew PerCrashCost and the crash count.
		half := d.P.OpsPerWindow / 2
		fired := false
		timer := d.K.After(time.Duration(half)*m.CleanPerOp, func() {
			fired = true
			d.Server.Crash()
		})
		d.window(p, d.P.OpsPerWindow, (c+1)*d.P.OpsPerWindow, gen, &m)
		timer.Stop()
		if !fired {
			continue // window drained before the crash could land
		}
		m.Crashes++
		window := p.Now().Sub(start)
		over := window - m.CleanPerOp*time.Duration(d.P.OpsPerWindow) - d.P.Restart
		if over < 0 {
			over = 0
		}
		recoveryCost += over
	}
	if m.Crashes > 0 {
		m.PerCrashCost = recoveryCost / time.Duration(m.Crashes)
	}
	m.Replayed = d.Server.Replayed
	return m
}

// ExpectedTotal extrapolates the total execution time of `ops` operations at
// the given availability, using the measured clean per-op time and per-crash
// recovery overhead: the quantity Fig. 12 normalizes.
//
// downFrac = 1-A fixes the mean time between failures at
// MTBF = restart*A/(1-A); the run then suffers T_clean/MTBF crashes, each
// costing the restart plus the measured recovery overhead.
func (m Measurement) ExpectedTotal(ops int64, availability float64, restart time.Duration) time.Duration {
	clean := time.Duration(ops) * m.CleanPerOp
	if availability >= 1 {
		return clean
	}
	up := float64(restart) * availability / (1 - availability)
	crashes := float64(clean) / up
	return clean + time.Duration(crashes*float64(restart+m.PerCrashCost))
}
