// Command mproxy is the single entry point to every experiment the
// repository reproduces from the paper. Each table and figure is a named
// preset, and any other configuration is a scenario.Spec JSON file; both
// execute through scenario.Run, which emits a deterministic run manifest
// (spec hash, seed, output digest) on stderr alongside the rendered
// output on stdout.
//
//	mproxy run <preset|spec.json>   # one experiment
//	mproxy list                     # named presets
//	mproxy bench                    # performance harness
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"mproxy/internal/bench"
	"mproxy/internal/scenario"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "run":
		return runSpec(args[1:], stdout, stderr)
	case "list":
		return runList(stdout)
	case "bench":
		return runBench(args[1:], stdout, stderr)
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return 0
	}
	fmt.Fprintf(stderr, "mproxy: unknown command %q\n\n", args[0])
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: mproxy <command> [flags]

commands:
  run      execute a named preset or a spec.json file
  list     named presets runnable with mproxy run
  bench    performance harness (BENCH_*.json suite)
  help     this message

run 'mproxy run -h' or 'mproxy bench -h' for their flags
`)
}

// newFlagSet builds a subcommand flag set that reports parse errors
// itself (ContinueOnError keeps the CLI testable in-process).
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("mproxy "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// runBench runs the fixed performance suite (internal/bench), writes
// the mproxy-bench/v1 JSON, and optionally gates against a checked-in
// baseline: any benchmark whose throughput regresses past the tolerance
// fails the invocation.
func runBench(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("bench", stderr)
	quick := fs.Bool("quick", false, "label the output as a CI shard run (every row runs its full shape either way)")
	out := fs.String("out", "", "write the suite JSON to this file (default: stdout)")
	baseline := fs.String("baseline", "", "BENCH_*.json to compare against; regressions fail the run")
	tol := fs.Float64("tolerance", 0.10, "allowed fractional throughput regression vs -baseline")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, err := bench.Run(bench.Options{Quick: *quick})
	if err != nil {
		fmt.Fprintln(stderr, "mproxy bench:", err)
		return 1
	}
	if *out != "" {
		if err := os.WriteFile(*out, s.JSON(), 0o644); err != nil {
			fmt.Fprintln(stderr, "mproxy bench:", err)
			return 1
		}
	} else {
		stdout.Write(s.JSON())
	}
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(stderr, "mproxy bench: baseline:", err)
			return 1
		}
		base, err := bench.ParseJSON(data)
		if err != nil {
			fmt.Fprintln(stderr, "mproxy bench: baseline:", err)
			return 1
		}
		bench.WriteComparison(stderr, s, base)
		if err := bench.Compare(s, base, *tol); err != nil {
			fmt.Fprintln(stderr, "mproxy bench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "bench: no regression vs %s (tolerance %.0f%%)\n", *baseline, *tol*100)
	}
	return 0
}

// runSpec executes one named preset or spec.json file and emits its
// manifest as one JSON line on stderr, keeping stdout byte-identical to
// the rendered experiment.
func runSpec(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("run", stderr)
	manifestOut := fs.String("manifest", "", "also write the run manifest JSON to this file")
	forensics := fs.String("forensics", "", "override the serving forensics output directory (must exist; empty keeps the spec's)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile (post-run, after GC) to this file")
	shards := fs.Int("shards", -1, "simulation shards for parallel-eligible runs: N explicit, 0 auto (largest divisor of the node count within GOMAXPROCS), -1 keeps the spec's; ineligible specs warn and run sequentially")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: mproxy run [-manifest file] [-forensics dir] [-shards n] [-cpuprofile file] [-memprofile file] <preset|spec.json>")
		return 2
	}
	target := fs.Arg(0)
	var spec scenario.Spec
	if p, err := scenario.PresetByName(target); err == nil {
		spec = p.Spec
	} else {
		data, rerr := os.ReadFile(target)
		if rerr != nil {
			// Not a preset and not a readable file: surface the preset
			// error, which lists every available name.
			fmt.Fprintln(stderr, "mproxy run:", err)
			fmt.Fprintf(stderr, "mproxy run: %q is not a readable spec file either\n", target)
			return 1
		}
		spec, rerr = scenario.ParseJSON(data)
		if rerr != nil {
			fmt.Fprintln(stderr, "mproxy run:", rerr)
			return 1
		}
	}
	if *forensics != "" {
		spec.Obs.Forensics = *forensics
	}
	if *shards >= 0 {
		n := *shards
		if n == 0 {
			// Auto: size from the normalized spec's cluster, so presets with
			// an implicit node count still resolve.
			n = scenario.AutoShards(spec.Normalize().Topology.Nodes, runtime.GOMAXPROCS(0))
		}
		spec.Topology.SimShards = n
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "mproxy run: cpuprofile:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "mproxy run: cpuprofile:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	m, err := scenario.Run(spec, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "mproxy:", err)
		return 1
	}
	stderr.Write(m.JSON())
	if *manifestOut != "" {
		if err := os.WriteFile(*manifestOut, m.JSON(), 0o644); err != nil {
			fmt.Fprintln(stderr, "mproxy run: manifest:", err)
			return 1
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(stderr, "mproxy run: memprofile:", err)
			return 1
		}
		defer f.Close()
		runtime.GC() // report live objects, not transient garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(stderr, "mproxy run: memprofile:", err)
			return 1
		}
	}
	return 0
}

func runList(stdout io.Writer) int {
	names := scenario.PresetNames()
	sort.Strings(names)
	fmt.Fprintln(stdout, "presets (mproxy run <name>):")
	for _, name := range names {
		p, _ := scenario.PresetByName(name)
		target := ""
		if p.Results != "" {
			target = " -> results/" + p.Results
		}
		if dir := p.Spec.Obs.Forensics; dir != "" {
			target += " [forensics -> " + dir + "/]"
		}
		// Multi-proxy annotations: presets that sweep the proxy grid, run
		// more than one proxy per node, or pick a non-default scheduling
		// policy say so — the proxy layout is the design variable the
		// sweep kinds exist to expose. Normalize first so a sweep's
		// default grid shows even when the preset leaves it implicit.
		sp := p.Spec.Normalize()
		if sv := sp.Serving; sv != nil && len(sv.ProxyCounts) > 0 {
			target += fmt.Sprintf(" [proxies %s x %s]",
				joinInts(sv.ProxyCounts), strings.Join(sv.Scheds, ","))
		} else if sp.Topology.Proxies > 1 || sp.Topology.ProxySched != "" {
			sched := sp.Topology.ProxySched
			if sched == "" {
				sched = "static"
			}
			target += fmt.Sprintf(" [%d proxies/node, %s]", sp.Topology.Proxies, sched)
		}
		if ok, _ := scenario.ParallelEligible(sp); ok {
			target += " [par]"
		}
		fmt.Fprintf(stdout, "  %-20s %s%s\n", name, p.Desc, target)
	}
	return 0
}

// joinInts renders an int list as a comma-separated string.
func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return strings.Join(parts, ",")
}
