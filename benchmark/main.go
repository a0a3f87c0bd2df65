// Command benchmark is the simulator's benchmark of record. It drives
// each workload from outside through scenario.Run, the entry point of
// `mproxy run`, in fresh child processes, checks every rep's output, and
// reports the host cost of the workload end to end (wall-clock, set-up
// time, peak memory) and, with -trace 1, per layer (CPU self time from a
// profiled run, exact event counts from a counted run, and each
// constructor's set-up time).
//
// Run it from the repository root, through benchmark/run.sh, which builds
// it first:
//
//	bash benchmark/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	bash benchmark/run.sh compare A.json B.json
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. Progress goes to standard
// error; the full result, with every raw sample, goes to -out.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// outDir holds result files, spans, raw profiles and per-rep forensics,
// relative to the repository root.
const outDir = ".bench_out"

// roundSeconds is the nominal cost of one round, a timed and a set-up child,
// of one workload on the 2-core development host (about 5 s for serve-hot16,
// 7 s for serve-1k, 8 s for paper-fig8). -seconds is turned into a round
// count with it, so the count depends only on the arguments, never on how
// fast the host happens to be: the default 30 s is 5 rounds.
const roundSeconds = 6.0

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "child":
		err = childMain(args[1:])
	case len(args) > 0 && args[0] == "compare":
		err = compareMain(args[1:], os.Stdout)
	default:
		err = benchMain(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	wl := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed of the open-loop arrival, key and op streams")
	seconds := fs.Float64("seconds", 30, "measuring time per workload, in seconds; sets the number of rounds")
	trace := fs.Int("trace", 0, "1 adds a profiled and a counted run per workload and reports per-layer metrics")
	out := fs.String("out", "", "result file (default "+outDir+"/result-<workload>-seed<N>.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seed == 0 {
		return errors.New("-seed must be positive")
	}
	if *seconds < roundSeconds/2 {
		return fmt.Errorf("-seconds must be at least %g, one round", roundSeconds/2)
	}
	names := workloadNames
	if *wl != "all" {
		names = []string{*wl}
	}
	cfg := setConfig{rounds: int(math.Round(*seconds / roundSeconds)), trace: *trace == 1}
	for _, name := range names {
		spec, err := loadSpec(name, *seed)
		if err != nil {
			return err
		}
		want, err := expectedDigests(name, *seed)
		if err != nil {
			return err
		}
		spec = spec.Normalize()
		if err := spec.Validate(); err != nil {
			return fmt.Errorf("workload %s: %w", name, err)
		}
		cfg.workloads = append(cfg.workloads, &wlRun{name: name, spec: spec, want: want})
	}
	if *out == "" {
		*out = filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d.json", *wl, *seed))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	b := &bench{self: self, dir: outDir, procs: min(2, runtime.NumCPU())}
	if cfg.trace {
		b.rec = &spanRecorder{}
	}
	b.runSet(cfg)
	for _, w := range cfg.workloads {
		if len(w.timed) == 0 || len(w.setups) == 0 || (cfg.trace && (w.profile == nil || w.count == nil)) {
			return fmt.Errorf("%s: no successful rep of some kind; nothing to report", w.name)
		}
	}

	r := newReport(readHost(b.procs), *seed, cfg)
	r.print(os.Stdout, names)
	if err := r.write(*out); err != nil {
		return err
	}
	fmt.Printf("result file: %s\n", *out)
	if cfg.trace {
		path := strings.TrimSuffix(*out, ".json") + ".spans.json"
		if err := b.rec.write(path); err != nil {
			return err
		}
		fmt.Printf("spans: %s\n", path)
	}
	line, err := r.resultLine(names)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
