package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// report is the result file: the host, the settings, and per workload
// every raw sample next to the statistics derived from it.
type report struct {
	Host      hostInfo             `json:"host"`
	Seed      uint64               `json:"seed"`
	Rounds    int                  `json:"rounds"`
	Trace     bool                 `json:"trace"`
	Workloads map[string]*wlReport `json:"workloads"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"` // of every child
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GitRev     string `json:"git_rev"`
}

type wlReport struct {
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	FailFrac  float64                  `json:"fail_frac"`
	Failures  []string                 `json:"failures,omitempty"`
	EndToEnd  map[string]metricSummary `json:"end_to_end"`
	PerLayer  map[string]float64       `json:"per_layer,omitempty"`
	Counts    map[string]uint64        `json:"counts,omitempty"`
	Raw       rawChildren              `json:"raw"`
}

type metricSummary struct {
	metricDef
	summary
}

type rawChildren struct {
	Timed   []childResult `json:"timed"`
	Setup   []childResult `json:"setup"`
	Profile *childResult  `json:"profile,omitempty"`
	Count   *childResult  `json:"count,omitempty"`
}

func newReport(host hostInfo, seed uint64, cfg setConfig) *report {
	r := &report{Host: host, Seed: seed, Rounds: cfg.rounds, Trace: cfg.trace,
		Workloads: map[string]*wlReport{}}
	for _, w := range cfg.workloads {
		wr := &wlReport{Attempted: w.attempted, Failed: w.failed, Failures: w.failures,
			EndToEnd: map[string]metricSummary{},
			Raw:      rawChildren{Timed: w.timed, Setup: w.setups, Profile: w.profile, Count: w.count}}
		if w.attempted > 0 {
			wr.FailFrac = float64(w.failed) / float64(w.attempted)
		}
		samples := w.endToEndSamples()
		for _, d := range endToEnd {
			wr.EndToEnd[d.Name] = metricSummary{d, summarize(samples[d.Name])}
		}
		if cfg.trace {
			wr.PerLayer = w.perLayerValues()
			if w.count != nil {
				wr.Counts = w.count.Counts
			}
		}
		r.Workloads[w.name] = wr
	}
	return r
}

// print writes every metric by name with its unit, end-to-end metrics
// with their spread over the reps.
func (r *report) print(out io.Writer, names []string) {
	for _, name := range names {
		wr := r.Workloads[name]
		fmt.Fprintf(out, "%s (seed %d): %d of %d children failed\n", name, r.Seed, wr.Failed, wr.Attempted)
		for _, d := range endToEnd {
			m := wr.EndToEnd[d.Name]
			fmt.Fprintf(out, "  %-24s %12.6f %-8s median of %d, q1 %.6f, q3 %.6f, spread %.1f%%, bound %.0f%%\n",
				d.Name, m.Median, d.Unit, m.N, m.Q1, m.Q3, 100*m.spread(), 100*d.Bound)
		}
		if wr.PerLayer == nil {
			continue
		}
		for _, d := range perLayer {
			fmt.Fprintf(out, "  %-24s %12.6f %s\n", d.Name, wr.PerLayer[d.Name], d.Unit)
		}
	}
}

// resultLine is the last line of standard output: end-to-end medians, or
// with tracing the per-layer metrics. With several workloads each metric
// name is prefixed with its workload's.
func (r *report) resultLine(names []string) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, name := range names {
		wr := r.Workloads[name]
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		key := func(m string) string {
			if len(names) > 1 {
				return name + "/" + m
			}
			return m
		}
		if r.Trace {
			for _, d := range perLayer {
				line.Metrics[key(d.Name)] = value{wr.PerLayer[d.Name], d.Unit}
			}
		} else {
			for _, d := range endToEnd {
				line.Metrics[key(d.Name)] = value{wr.EndToEnd[d.Name].Median, d.Unit}
			}
		}
	}
	line.Correct = line.Failed == 0
	return json.Marshal(line)
}

func (r *report) write(path string) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	return nil
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func readHost(procs int) hostInfo {
	return hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(),
		CPUModel: cpuModel(), GitRev: gitRev()}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev reads the checked-out commit from .git in the working directory
// (without running git, which would search parent directories); an
// exported tree has none and reports "unknown".
func gitRev() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return rev
		}
	}
	return "unknown"
}
