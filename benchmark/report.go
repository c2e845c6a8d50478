package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// record is one run in a JSON-lines record file (-out, -compare, -summary).
type record struct {
	Workload    string `json:"workload"`
	Seed        uint64 `json:"seed"`
	Trace       int    `json:"trace"`
	Fingerprint string `json:"sim_fingerprint"`
	result
}

func (rep *report) result() result {
	r := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range rep.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a ratio over an empty run; JSON has no NaN
		}
		r.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	return r
}

func (rep *report) record() record {
	tr := 0
	if rep.traced {
		tr = 1
	}
	return record{Workload: rep.workload, Seed: rep.seed, Trace: tr,
		Fingerprint: fmt.Sprintf("%016x", rep.fingerprint), result: rep.result()}
}

// print writes the human-readable table and then, as the last line, the
// result object.
func (rep *report) print(w io.Writer) {
	mode := "untraced: end-to-end metrics"
	if rep.traced {
		mode = "traced: per-layer metrics"
	}
	fmt.Fprintf(w, "workload %s  seed %d  passes %d  (%s)\n", rep.workload, rep.seed, rep.passes, mode)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tsamples")
	for _, m := range rep.metrics {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\n", m.name, m.value, m.unit, m.samples)
	}
	tw.Flush()
	fmt.Fprintf(w, "sim_fingerprint %016x  (%d of %d passes diverged)\n", rep.fingerprint, rep.diverged, rep.passes)
	fmt.Fprintf(w, "error_rate %.6g  (%d failed of %d attempted)\n", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	if rep.firstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", rep.firstErr)
	}
	line, _ := json.Marshal(rep.result()) // plain structs and finite floats: cannot fail
	fmt.Fprintf(w, "%s\n", line)
}

func appendRecord(path string, rep *report) error {
	line, err := json.Marshal(rep.record())
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which chrome://tracing and Perfetto open. Times are host microseconds
// since the traced pass began; args carry the virtual times.
type chromeEvent struct {
	Name string     `json:"name"`
	Ph   string     `json:"ph"`
	TS   float64    `json:"ts"`
	Dur  float64    `json:"dur"`
	PID  int        `json:"pid"`
	TID  int        `json:"tid"`
	Args chromeArgs `json:"args"`
}

type chromeArgs struct {
	Op         uint64  `json:"op"`
	Parent     uint64  `json:"parent,omitempty"`
	SimStartUS float64 `json:"sim_start_us"`
	SimDurUS   float64 `json:"sim_dur_us"`
}

func writeChromeTrace(path string, spans []span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].host0 < spans[j].host0 })
	ev := make([]chromeEvent, len(spans))
	for i, s := range spans {
		ev[i] = chromeEvent{
			Name: s.name.String(), Ph: "X", PID: 1, TID: s.client,
			TS: float64(s.host0) / 1e3, Dur: float64(s.host1-s.host0) / 1e3,
			Args: chromeArgs{Op: s.id, Parent: s.parent,
				SimStartUS: float64(s.sim0) / 1e3, SimDurUS: float64(s.sim1-s.sim0) / 1e3},
		}
	}
	b, err := json.Marshal(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{ev})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
