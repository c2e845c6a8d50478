// Command benchmark measures the simulator: four closed-loop workloads,
// each checked while it is timed, reported as end-to-end metrics from an
// untraced run and per-layer metrics from a traced one. See README.md.
//
//	go run . --workload rpc_small_write --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run; all runs each one in a child process, untraced then traced")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "host seconds to measure; whole passes run until they are reached")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 alternates untraced and traced passes and reports per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the first traced pass's spans to this file as Chrome trace-event JSON")
	out := fs.String("out", "", "append the run's record to this JSON-lines file, the input of -compare and -summary")
	compare := fs.Bool("compare", false, "compare two record files: -compare a.jsonl b.jsonl")
	summary := fs.Bool("summary", false, "print the median and quartiles of every metric in a record file, with the machine: -summary runs.jsonl")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition whose bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "-compare takes two record files")
			return 2
		}
		err = compareFiles(*spec, fs.Arg(0), fs.Arg(1), stdout)
	case *summary:
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "-summary takes one record file")
			return 2
		}
		err = summarize(fs.Arg(0), stdout)
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "-trace must be 0 or 1")
		return 2
	case *name == "all":
		err = runAll(*seed, *seconds, *out, stdout, stderr)
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q\n", *name)
			return 2
		}
		rep, merr := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, 1)
		if merr != nil {
			fmt.Fprintln(stderr, merr)
			return 1
		}
		if *traceOut != "" && rep.traced {
			if err = writeChromeTrace(*traceOut, rep.spans); err != nil {
				break
			}
		}
		if *out != "" {
			if err = appendRecord(*out, rep); err != nil {
				break
			}
		}
		rep.print(stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// runAll runs every workload untraced and then traced, each in a fresh
// child process so no run inherits another's heap or peak RSS.
func runAll(seed uint64, seconds float64, out string, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		for _, tr := range []string{"0", "1"} {
			args := []string{"--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", tr}
			if out != "" {
				args = append(args, "--out", out)
			}
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s --trace %s: %w", w.name, tr, err)
			}
		}
	}
	return nil
}

// report is one run's outcome.
type report struct {
	workload  string
	seed      uint64
	traced    bool
	passes    int
	attempted int64
	failed    int64
	// diverged counts passes whose fingerprint differed from the first
	// pass's; every pass simulates the same seed, so any is a failure.
	diverged    int
	fingerprint uint64
	firstErr    error
	metrics     []metric
	spans       []span
}

type metric struct {
	name    string
	value   float64
	unit    string
	samples int64
}

// tally accumulates the passes of one mode, untraced or traced.
type tally struct {
	passes            int
	setup             []float64 // seconds per pass
	busy              time.Duration
	simElapsed        time.Duration
	ops               int64
	stale, unverified int64
	shuffleHost       time.Duration
	host              []hist // host call latencies per op name
	// sim holds the virtual call latencies per op name of the first pass
	// only: every pass repeats them exactly, so they are kept exact.
	sim [][]uint32
	cnt counters
	cpu map[string]int64 // CPU nanoseconds per layer
	// Runtime memory statistics across the passes.
	mallocs, allocBytes, gcs, gcPauseNs uint64
}

func (t *tally) add(r *passResult) {
	if t.host == nil {
		t.host, t.sim = make([]hist, nNames), make([][]uint32, nNames)
		for _, c := range r.clients {
			for _, rec := range c.recs {
				t.sim[rec.name] = append(t.sim[rec.name], rec.sim)
			}
		}
	}
	t.passes++
	t.setup = append(t.setup, r.setup.Seconds())
	t.busy += r.busy
	t.simElapsed += r.simElapsed
	t.ops += r.ops()
	t.shuffleHost += r.shuffleHost
	for _, c := range r.clients {
		for _, rec := range c.recs {
			t.host[rec.name][bucketOf(rec.host)]++
		}
		t.stale += c.stale
		t.unverified += c.unverified
	}
	t.cnt.add(&r.cnt)
}

func (t *tally) addMem(m0, m1 *runtime.MemStats) {
	t.mallocs += m1.Mallocs - m0.Mallocs
	t.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	t.gcs += uint64(m1.NumGC - m0.NumGC)
	t.gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
}

// hostLat returns the host latency histograms of the named calls, or of
// every call when no name is given.
func (t *tally) hostLat(names ...opName) []*hist {
	var out []*hist
	for i := range t.host {
		if len(names) == 0 || slices.Contains(names, opName(i)) {
			out = append(out, &t.host[i])
		}
	}
	return out
}

// simPct returns the nearest-rank p-th percentile, in microseconds, of the
// virtual latencies of the named calls (every call when no name is given),
// and how many there are.
func (t *tally) simPct(p float64, names ...opName) (float64, int64) {
	var v []uint32
	for i, s := range t.sim {
		if len(names) == 0 || slices.Contains(names, opName(i)) {
			v = append(v, s...)
		}
	}
	if len(v) == 0 {
		return 0, 0
	}
	slices.Sort(v)
	rank := max(int(math.Ceil(float64(len(v))*p/100)), 1)
	return float64(v[rank-1]) / 1e3, int64(len(v))
}

func median(v []float64) float64 { return quartiles(v)[1] }

// measure runs whole passes of w until seconds of host time have passed.
// Untraced runs report end-to-end metrics. Traced runs alternate untraced
// and traced passes, ending on a traced one, and report per-layer metrics:
// the untraced passes give the runtime statistics and the tracing overhead.
func measure(w workload, seed uint64, seconds time.Duration, traced bool, scale float64) (*report, error) {
	pass, err := w.prepare(seed, scale)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rep := &report{workload: w.name, seed: seed, traced: traced}
	var plain, trc tally
	trc.cpu = make(map[string]int64)
	start := time.Now()
	for i := 0; ; i++ {
		tracing := traced && i%2 == 1
		var res *passResult
		// Every pass starts from a collected heap, so no pass pays for the
		// garbage of the one before it.
		runtime.GC()
		if tracing {
			var prof bytes.Buffer
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
			res = pass(&tracer{epoch: time.Now()})
			pprof.StopCPUProfile()
			if err := cpuByLayer(prof.Bytes(), trc.cpu); err != nil {
				return nil, err
			}
			trc.add(res)
			if rep.spans == nil {
				for _, c := range res.clients {
					rep.spans = append(rep.spans, c.spans...)
				}
			}
		} else {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			res = pass(nil)
			runtime.ReadMemStats(&m1)
			plain.addMem(&m0, &m1)
			plain.add(res)
		}
		rep.fold(res, i)
		if time.Since(start) >= seconds && (!traced || tracing) {
			break
		}
	}
	if traced {
		rep.metrics = perLayer(&trc, &plain)
	} else {
		rep.metrics = endToEnd(&plain)
	}
	return rep, nil
}

// fold adds pass i's outcome to the report.
func (rep *report) fold(res *passResult, i int) {
	rep.passes++
	rep.attempted += res.ops()
	for _, c := range res.clients {
		rep.failed += c.failed
		if rep.firstErr == nil {
			rep.firstErr = c.firstErr
		}
	}
	fp := res.fingerprint()
	if i == 0 {
		rep.fingerprint = fp
	} else if fp != rep.fingerprint {
		rep.diverged++
		rep.failed++
	}
}

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func endToEnd(t *tally) []metric {
	hostP50, n := percentile(t.hostLat(), 50)
	hostP99, _ := percentile(t.hostLat(), 99)
	simP50, nSim := t.simPct(50)
	simP99, _ := t.simPct(99)
	// Every pass makes the same calls in the same virtual time. Dividing the
	// exact integer sums keeps sim_kops bit-identical however many passes
	// fitted into the run.
	simKops := float64(t.ops) * 1e6 / float64(t.simElapsed)
	return []metric{
		{"setup_s", median(t.setup), "s", int64(len(t.setup))},
		{"ops_per_s", float64(t.ops) / t.busy.Seconds(), "1/s", t.ops},
		{"op_host_us_p50", hostP50, "us", n},
		{"op_host_us_p99", hostP99, "us", n},
		{"peak_rss_mb", peakRSSMB(), "MB", 1},
		{"sim_kops", simKops, "kop/s", t.ops},
		{"sim_lat_us_p50", simP50, "us", nSim},
		{"sim_lat_us_p99", simP99, "us", nSim},
	}
}
