package failure

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"prdma/internal/fabric"
	"prdma/internal/host"
	"prdma/internal/pmem"
	"prdma/internal/rnic"
	"prdma/internal/rpc"
	"prdma/internal/sim"
)

type rig struct {
	k      *sim.Kernel
	cli    *host.Host
	srv    *host.Host
	engine *rpc.Server
}

func newRig(t *testing.T, workers int) *rig {
	t.Helper()
	k := sim.New()
	net := fabric.New(k, fabric.DefaultParams(), 11)
	np := rnic.DefaultParams()
	cli := host.New(k, "cli", net, host.DefaultParams(), pmem.DefaultParams(), np)
	srv := host.New(k, "srv", net, host.DefaultParams(), pmem.DefaultParams(), np)
	store, err := rpc.NewStore(srv, 256, 1024)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rpc.DefaultConfig()
	cfg.Workers = workers
	// Fig. 12 regime: real per-request processing makes the server the
	// steady-state bottleneck for every system, so clean throughput is
	// equal and the measured difference is recovery cost alone.
	cfg.ProcessingTime = 20 * time.Microsecond
	return &rig{k: k, cli: cli, srv: srv, engine: rpc.NewServer(srv, store, cfg)}
}

func payload(i int) []byte {
	b := bytes.Repeat([]byte{byte(i)}, 1024)
	return b
}

func writeGen(i int) *rpc.Request {
	return &rpc.Request{Op: rpc.OpWrite, Key: uint64(i % 128), Size: 1024, Payload: payload(i)}
}

// shortParams keeps virtual time small for unit tests.
func shortParams() Params {
	return Params{
		Restart:      5 * time.Millisecond,
		Retransfer:   time.Millisecond,
		Crashes:      3,
		OpsPerWindow: 60,
		Pipeline:     8,
	}
}

func TestDurableSurvivesCrashesWithReplay(t *testing.T) {
	r := newRig(t, 2)
	c := rpc.New(rpc.WFlushRPC, r.cli, r.engine, r.engine.Cfg).(rpc.Recoverable)
	d := NewDriver(r.k, r.srv, r.engine, c, shortParams())
	var m Measurement
	r.k.Go("driver", func(p *sim.Proc) { m = d.Run(p, writeGen) })
	r.k.Run()
	want := shortParams().OpsPerWindow * (shortParams().Crashes + 1)
	if m.Ops != want {
		t.Fatalf("ops = %d, want %d", m.Ops, want)
	}
	if m.Crashes != 3 {
		t.Fatalf("crashes = %d", m.Crashes)
	}
	if m.Replayed == 0 {
		t.Fatal("durable RPC recovered nothing from the log across 3 crashes")
	}
	if m.CleanPerOp <= 0 || m.PerCrashCost < 0 {
		t.Fatalf("bad measurement: %+v", m)
	}
}

func TestBaselineSurvivesCrashesWithResend(t *testing.T) {
	r := newRig(t, 2)
	c := rpc.New(rpc.FaRM, r.cli, r.engine, r.engine.Cfg).(rpc.Recoverable)
	d := NewDriver(r.k, r.srv, r.engine, c, shortParams())
	var m Measurement
	r.k.Go("driver", func(p *sim.Proc) { m = d.Run(p, writeGen) })
	r.k.Run()
	want := shortParams().OpsPerWindow * (shortParams().Crashes + 1)
	if m.Ops != want {
		t.Fatalf("ops = %d, want %d", m.Ops, want)
	}
	if m.Resent == 0 {
		t.Fatal("baseline resent nothing across 3 crashes")
	}
	if m.Replayed != 0 {
		t.Fatal("baseline has no log to replay from")
	}
}

func TestDurableResendsLessThanBaseline(t *testing.T) {
	run := func(kind rpc.Kind) Measurement {
		r := newRig(t, 2)
		c := rpc.New(kind, r.cli, r.engine, r.engine.Cfg).(rpc.Recoverable)
		p := shortParams()
		p.Crashes = 5
		d := NewDriver(r.k, r.srv, r.engine, c, p)
		var m Measurement
		r.k.Go("driver", func(pp *sim.Proc) { m = d.Run(pp, writeGen) })
		r.k.Run()
		return m
	}
	durable := run(rpc.WFlushRPC)
	baseline := run(rpc.FaRM)
	// The durable client recovers server-side from the log; the baseline
	// has nothing to replay and can only re-send.
	if durable.Replayed == 0 {
		t.Fatal("durable client replayed nothing")
	}
	if baseline.Replayed != 0 {
		t.Fatal("baseline replayed from a log it does not have")
	}
	// Extrapolated totals (the Fig. 12 quantity): the durable RPC must win
	// at every availability level.
	const ops = 1_000_000
	restart := 300 * time.Millisecond
	for _, a := range []float64{0.99999, 0.9999, 0.999, 0.99} {
		norm := float64(durable.ExpectedTotal(ops, a, restart)) /
			float64(baseline.ExpectedTotal(ops, a, restart))
		if norm >= 1 {
			t.Fatalf("normalized time %.3f >= 1 at availability %v", norm, a)
		}
	}
}

func TestRecoveredDataIntact(t *testing.T) {
	// After crashes, every op that was issued must be applied exactly once
	// or more (at-least-once), with intact contents: read back a sample.
	r := newRig(t, 1)
	c := rpc.New(rpc.WFlushRPC, r.cli, r.engine, r.engine.Cfg).(rpc.Recoverable)
	p := shortParams()
	p.Crashes = 2
	p.Pipeline = 4
	d := NewDriver(r.k, r.srv, r.engine, c, p)
	r.k.Go("driver", func(pp *sim.Proc) {
		d.Run(pp, writeGen)
		// Drain processing, then spot-check several keys.
		pp.Sleep(50 * time.Millisecond)
		for _, i := range []int{1, 17, 42, 99} {
			resp, err := c.CallTimeout(pp, &rpc.Request{Op: rpc.OpRead, Key: uint64(i % 128), Size: 1024, Payload: []byte{1}}, 100*time.Millisecond)
			if err != nil {
				t.Errorf("read key %d: %v", i, err)
				continue
			}
			if len(resp.Data) != 1024 {
				t.Errorf("key %d: got %d bytes", i, len(resp.Data))
			}
		}
	})
	r.k.Run()
}

func TestExpectedTotalMonotonicity(t *testing.T) {
	m := Measurement{CleanPerOp: 10 * time.Microsecond, PerCrashCost: 20 * time.Millisecond}
	restart := 300 * time.Millisecond
	prev := time.Duration(1 << 62)
	for _, a := range []float64{0.99, 0.999, 0.9999, 0.99999} {
		tot := m.ExpectedTotal(1e6, a, restart)
		if tot >= prev {
			t.Fatalf("expected total not decreasing with availability: %v at %v", tot, a)
		}
		prev = tot
	}
	clean := m.ExpectedTotal(1e6, 1.0, restart)
	if clean != time.Duration(1e6)*m.CleanPerOp {
		t.Fatalf("clean total = %v", clean)
	}
}

// A window that drains faster than the calibrated crash delay must not leave
// the crash timer armed: before the fix it fired into the next window (or
// after Run returned), crashing a server no measurement was watching and
// corrupting PerCrashCost.
func TestFastWindowLeavesNoArmedCrash(t *testing.T) {
	k := sim.New()
	net := fabric.New(k, fabric.DefaultParams(), 11)
	np := rnic.DefaultParams()
	cli := host.New(k, "cli", net, host.DefaultParams(), pmem.DefaultParams(), np)
	srv := host.New(k, "srv", net, host.DefaultParams(), pmem.DefaultParams(), np)
	store, err := rpc.NewStore(srv, 256, 1024)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rpc.DefaultConfig()
	cfg.Workers = 2
	engine := rpc.NewServer(srv, store, cfg)
	c := rpc.New(rpc.WFlushRPC, cli, engine, cfg).(rpc.Recoverable)

	p := shortParams()
	// Calibration ops are 512x larger than the crash-window ops, so every
	// crash window drains long before half a calibrated window elapses.
	gen := func(i int) *rpc.Request {
		size := 64
		if i < p.OpsPerWindow {
			size = 32768
		}
		return &rpc.Request{Op: rpc.OpWrite, Key: uint64(i % 128), Size: size}
	}
	d := NewDriver(k, srv, engine, c, p)
	var m Measurement
	k.Go("driver", func(pp *sim.Proc) {
		m = d.Run(pp, gen)
		// Idle long past the crash delay: a leaked timer would fire here.
		pp.Sleep(time.Second)
	})
	k.Run()

	if srv.Crashes != 0 {
		t.Fatalf("server crashed %d times; every window drained before its crash delay", srv.Crashes)
	}
	if m.Crashes != 0 {
		t.Fatalf("measurement counted %d crashes that never landed", m.Crashes)
	}
	if m.PerCrashCost != 0 {
		t.Fatalf("PerCrashCost = %v from zero observed crashes", m.PerCrashCost)
	}
	if !d.Server.Up() {
		t.Fatal("server left down after Run")
	}
	if want := p.OpsPerWindow * (p.Crashes + 1); m.Ops != want {
		t.Fatalf("ops = %d, want %d", m.Ops, want)
	}
}

// checkedClient runs check before every call the driver issues.
type checkedClient struct {
	rpc.Recoverable
	check func()
}

func (c checkedClient) CallTimeout(p *sim.Proc, req *rpc.Request, d time.Duration) (*rpc.Response, error) {
	c.check()
	return c.Recoverable.CallTimeout(p, req, d)
}

// A crash that lands while the first incarnation after a crash is being
// re-established interrupts it: Ready must wait out the second restart and
// re-establish the new incarnation before any call goes out, and the down
// server must execute nothing.
func TestCrashDuringReestablish(t *testing.T) {
	r := newRig(t, 1)
	c := rpc.New(rpc.WFlushRPC, r.cli, r.engine, r.engine.Cfg).(rpc.Recoverable)
	p := shortParams()
	p.Crashes = 1
	d := NewDriver(r.k, r.srv, r.engine, c, p)
	s := d.Server

	var errs []error
	reestablish := s.Reestablish
	s.Reestablish = func(pp *sim.Proc) (int, error) {
		n, err := reestablish(pp)
		errs = append(errs, err)
		return n, err
	}
	// handledDown counts requests the engine finished between a crash and
	// its restart.
	var handledDown int64
	fail := s.Fail
	s.Fail = func() {
		fail()
		at := r.engine.Handled
		r.k.AfterFunc(p.Restart-1, func() { handledDown += r.engine.Handled - at })
	}
	badCalls := 0
	d.Client = checkedClient{c, func() {
		if !s.Up() || (len(errs) > 0 && errs[len(errs)-1] != nil) {
			badCalls++
		}
	}}
	// The first re-establishment follows the window's crash.
	s.CrashInRecovery(2 * time.Microsecond)

	var m Measurement
	r.k.Go("driver", func(pp *sim.Proc) { m = d.Run(pp, writeGen) })
	r.k.Run()

	if r.srv.Crashes != 2 || m.Crashes != 1 {
		t.Fatalf("host crashed %d times, driver counted %d; want 2 and 1", r.srv.Crashes, m.Crashes)
	}
	if len(errs) != 2 || !errors.Is(errs[0], rpc.ErrCrashed) || errs[1] != nil {
		t.Fatalf("re-establishments returned %v; want ErrCrashed, then success", errs)
	}
	if m.Replayed == 0 {
		t.Fatal("the second incarnation replayed nothing")
	}
	if badCalls != 0 {
		t.Fatalf("%d calls went out while the server was down or not re-established", badCalls)
	}
	if handledDown != 0 {
		t.Fatalf("the server handled %d requests while down", handledDown)
	}
	if want := p.OpsPerWindow * (p.Crashes + 1); m.Ops != want || !s.Up() {
		t.Fatalf("ops = %d (want %d), up = %v", m.Ops, want, s.Up())
	}
}
