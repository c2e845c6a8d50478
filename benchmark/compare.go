package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
)

// specMetric is one end-to-end metric of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) ([]specMetric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s struct {
		EndToEnd []specMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return s.EndToEnd, nil
}

// quartiles returns the first quartile, median and third quartile of v,
// computed as Python's statistics.quantiles(v, n=4) does (the exclusive
// method).
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// verdict judges B's runs of m against A's. change is the median's move as
// a share of A's median, positive when B is worse; spread is the larger of
// the two sides' quartile distance as a share of its median. A spread wider
// than the bound leaves the metric unresolved, unless every B run is better
// than every A run.
func verdict(m specMetric, a, b []float64) (change float64, v string) {
	qa, qb := quartiles(a), quartiles(b)
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	if qa[1] != 0 {
		change = sign * (qb[1] - qa[1]) / qa[1]
	}
	spread := 0.0
	for _, q := range [][3]float64{qa, qb} {
		if q[1] != 0 && (q[2]-q[0])/q[1] > spread {
			spread = (q[2] - q[0]) / q[1]
		}
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case spread > m.Bound && allBetter:
		return change, "better"
	case spread > m.Bound:
		return change, "unresolved"
	case change > m.Bound:
		return change, "worse"
	case change < -m.Bound:
		return change, "better"
	}
	return change, "within bound"
}

// untraced returns the records of workload w that carry end-to-end metrics.
func untraced(rs []record, w string) []record {
	var out []record
	for _, r := range rs {
		if r.Workload == w && r.Trace == 0 {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []record, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// fingerprints maps each seed to the distinct fingerprints its runs gave.
func fingerprints(rs []record) map[uint64][]string {
	out := map[uint64][]string{}
	for _, r := range rs {
		fps := out[r.Seed]
		if !slices.Contains(fps, r.Fingerprint) {
			out[r.Seed] = append(fps, r.Fingerprint)
		}
	}
	return out
}

// compareFiles prints, per workload and end-to-end metric, each side's
// median and quartiles and the verdict against the metric's bound, and
// whether the two sides simulated identically at each seed they share.
func compareFiles(specPath, aPath, bPath string, w io.Writer) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readRecords(aPath)
	if err != nil {
		return err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s, B = %s; change is B against A's median, positive when worse\n", aPath, bPath)
	for _, wl := range workloads {
		ra, rb := untraced(a, wl.name), untraced(b, wl.name)
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s: %d A runs, %d B runs\n", wl.name, len(ra), len(rb))
		fa, fb := fingerprints(ra), fingerprints(rb)
		seeds := make([]uint64, 0, len(fa))
		for s := range fa {
			seeds = append(seeds, s)
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		for _, s := range seeds {
			if fb[s] == nil {
				continue
			}
			same := len(fa[s]) == 1 && len(fb[s]) == 1 && fa[s][0] == fb[s][0]
			state := "identical"
			if !same {
				state = "DIFFERS"
			}
			fmt.Fprintf(w, "  sim_fingerprint seed %d: %s (A %s, B %s)\n", s, state,
				strings.Join(fa[s], ","), strings.Join(fb[s], ","))
		}
		tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
		fmt.Fprintln(tw, "  metric\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tverdict")
		for _, m := range spec {
			xa, xb := values(ra, m.Name), values(rb, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(tw, "  %s\t\t\t\t\tmissing\n", m.Name)
				continue
			}
			qa, qb := quartiles(xa), quartiles(xb)
			change, v := verdict(m, xa, xb)
			fmt.Fprintf(tw, "  %s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%+.2f%%\t%.0f%%\t%s\n",
				m.Name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], 100*change, 100*m.Bound, v)
		}
		tw.Flush()
	}
	return nil
}

// machine describes where a record file was measured.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	CPUModel   string `json:"cpu_model"`
}

func machineInfo() machine {
	m := machine{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
	Runs   int     `json:"runs"`
}

type workloadSummary struct {
	Seeds        []uint64        `json:"seeds"`
	Fingerprints []string        `json:"sim_fingerprints"`
	Failed       int64           `json:"failed"`
	Metrics      map[string]stat `json:"metrics"`
}

// summarize prints, as JSON, the machine and per workload the median and
// quartiles of every metric in a record file.
func summarize(path string, w io.Writer) error {
	rs, err := readRecords(path)
	if err != nil {
		return err
	}
	out := struct {
		Machine   machine                    `json:"machine"`
		Workloads map[string]workloadSummary `json:"workloads"`
	}{machineInfo(), map[string]workloadSummary{}}
	for _, wl := range workloads {
		var mine []record
		for _, r := range rs {
			if r.Workload == wl.name {
				mine = append(mine, r)
			}
		}
		if len(mine) == 0 {
			continue
		}
		s := workloadSummary{Metrics: map[string]stat{}}
		vals, units := map[string][]float64{}, map[string]string{}
		for _, r := range mine {
			if !slices.Contains(s.Seeds, r.Seed) {
				s.Seeds = append(s.Seeds, r.Seed)
			}
			if r.Trace == 0 && !slices.Contains(s.Fingerprints, r.Fingerprint) {
				s.Fingerprints = append(s.Fingerprints, r.Fingerprint)
			}
			s.Failed += r.Failed
			for name, m := range r.Metrics {
				vals[name] = append(vals[name], m.Value)
				units[name] = m.Unit
			}
		}
		for name, v := range vals {
			q := quartiles(v)
			s.Metrics[name] = stat{Median: q[1], Q1: q[0], Q3: q[2], Unit: units[name], Runs: len(v)}
		}
		out.Workloads[wl.name] = s
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
