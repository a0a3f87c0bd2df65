// Command mproxy is the single entry point to every experiment the
// repository reproduces from the paper. Each subcommand keeps the flag
// surface of the per-experiment binary it replaced; all of them build a
// scenario.Spec and execute it through scenario.Run, which emits a
// deterministic run manifest (spec hash, seed, output digest) on stderr
// alongside the rendered output on stdout.
//
//	mproxy micro              # Table 4 (also: -params, -sweep)
//	mproxy apps               # Figure 8 (also: -list, -table6)
//	mproxy model              # Section 4 analytic model
//	mproxy smp                # Figure 9 SMP contention
//	mproxy queue              # Section 5.4 queueing analysis
//	mproxy fault              # reliable-transport loss sweep
//	mproxy prof               # phase-latency breakdowns
//	mproxy run <preset|spec.json>
//	mproxy list               # named presets
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
	"mproxy/internal/scenario/cli"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// command is one subcommand: it parses args into a spec (or handles the
// invocation itself and returns done=true).
type command struct {
	name    string
	summary string
	build   func(args []string, stdout, stderr io.Writer) (scenario.Spec, bool, int)
}

func commands() []command {
	return []command{
		{"micro", "Table 3/4 micro-benchmarks and Figure 7 sweeps", buildMicro},
		{"apps", "Table 5/6 and Figure 8 application experiments", buildApps},
		{"model", "Section 4 analytic model", buildModel},
		{"smp", "Figure 9 SMP-contention runs", buildSMP},
		{"queue", "Section 5.4 queueing analysis", buildQueue},
		{"fault", "reliable-transport loss sweep", buildFault},
		{"prof", "profiled phase-latency breakdowns", buildProf},
		{"bench", "performance harness (BENCH_*.json suite)", buildBench},
		{"run", "execute a named preset or a spec.json file", buildRun},
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	name, rest := args[0], args[1:]
	switch name {
	case "list":
		return runList(stdout)
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return 0
	}
	for _, c := range commands() {
		if c.name != name {
			continue
		}
		spec, done, code := c.build(rest, stdout, stderr)
		if done {
			return code
		}
		return execute(spec, stdout, stderr)
	}
	fmt.Fprintf(stderr, "mproxy: unknown command %q\n\n", name)
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: mproxy <command> [flags]")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "commands:")
	for _, c := range commands() {
		fmt.Fprintf(w, "  %-8s %s\n", c.name, c.summary)
	}
	fmt.Fprintf(w, "  %-8s %s\n", "list", "named presets runnable with mproxy run")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "run 'mproxy <command> -h' for the command's flags")
}

// execute runs the spec and emits its manifest as one JSON line on
// stderr, keeping stdout byte-identical to the rendered experiment.
func execute(spec scenario.Spec, stdout, stderr io.Writer) int {
	m, err := scenario.Run(spec, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "mproxy:", err)
		return 1
	}
	stderr.Write(m.JSON())
	return 0
}

// newFlagSet builds a subcommand flag set that reports parse errors
// itself (ContinueOnError keeps the CLI testable in-process).
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("mproxy "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

func buildMicro(args []string, stdout, stderr io.Writer) (scenario.Spec, bool, int) {
	fs := newFlagSet("micro", stderr)
	params := fs.Bool("params", false, "print Table 3 design-point parameters")
	sweep := fs.Bool("sweep", false, "print Figure 7 ping-pong sweeps")
	csv := fs.Bool("csv", false, "emit the sweep as CSV (with -sweep)")
	archs := fs.String("archs", "", "comma-separated design points (default: all)")
	benchJSON := fs.String("bench-json", "", "also write the benchmark results as JSON to this file")
	obs := cli.AddObsFlags(fs)
	flt := cli.AddFaultFlags(fs)
	if err := fs.Parse(args); err != nil {
		return scenario.Spec{}, true, 2
	}
	spec := scenario.Spec{Kind: scenario.KindMicroTable4}
	if *params {
		spec.Kind = scenario.KindMicroParams
	} else if *sweep {
		spec.Kind = scenario.KindMicroSweep
		if *csv {
			spec.Out.Format = "csv"
		}
	}
	spec.Archs = cli.SplitList(*archs)
	spec.Out.BenchJSON = *benchJSON
	obs(&spec)
	flt(&spec)
	return spec, false, 0
}

func buildApps(args []string, stdout, stderr io.Writer) (scenario.Spec, bool, int) {
	fs := newFlagSet("apps", stderr)
	list := fs.Bool("list", false, "print Table 5 (applications and inputs)")
	csv := fs.Bool("csv", false, "emit Figure 8 as CSV")
	table6 := fs.Bool("table6", false, "print Table 6 (message statistics at 16 procs)")
	scale := fs.String("scale", "small", "problem scale: test, small, full")
	appsCS := fs.String("apps", "", "comma-separated applications (default: all)")
	archCS := fs.String("archs", "HW0,HW1,MP0,MP1,MP2,SW1", "design points for Figure 8")
	procs := fs.String("procs", "1,2,4,8,16", "processor counts")
	jobs := fs.Int("j", 1, "worker goroutines for the Figure 8 matrix (0 = all CPUs); results are bit-identical to -j 1")
	benchJSON := fs.String("bench-json", "", "also write the Figure 8 cells as JSON to this file")
	obs := cli.AddObsFlags(fs)
	flt := cli.AddFaultFlags(fs)
	if err := fs.Parse(args); err != nil {
		return scenario.Spec{}, true, 2
	}
	spec := scenario.Spec{Kind: scenario.KindAppsFigure8, Scale: *scale}
	spec.Apps = cli.SplitList(*appsCS)
	switch {
	case *list:
		spec.Kind = scenario.KindAppsList
	case *table6:
		spec.Kind = scenario.KindAppsTable6
	default:
		spec.Archs = cli.SplitList(*archCS)
		p, err := cli.ParseInts(*procs)
		if err != nil {
			fmt.Fprintln(stderr, "mproxy apps:", err)
			return scenario.Spec{}, true, 2
		}
		spec.Procs = p
		spec.Jobs = *jobs
		if *jobs == 0 {
			spec.Jobs = -1 // all CPUs in spec terms (0 means default)
		}
		if *csv {
			spec.Out.Format = "csv"
		}
		spec.Out.BenchJSON = *benchJSON
	}
	obs(&spec)
	flt(&spec)
	return spec, false, 0
}

func buildModel(args []string, stdout, stderr io.Writer) (scenario.Spec, bool, int) {
	fs := newFlagSet("model", stderr)
	def := scenario.DefaultModelParams()
	c := fs.Float64("C", def.C, "cache miss latency (us)")
	u := fs.Float64("U", def.U, "uncached access latency (us)")
	v := fs.Float64("V", def.V, "vm_att/vm_det latency (us)")
	s := fs.Float64("S", def.S, "processor speed (multiple of 75 MHz)")
	p := fs.Float64("P", def.P, "polling delay (us)")
	l := fs.Float64("L", def.L, "network latency (us)")
	if err := fs.Parse(args); err != nil {
		return scenario.Spec{}, true, 2
	}
	return scenario.Spec{
		Kind:  scenario.KindModel,
		Model: &scenario.ModelParams{C: *c, U: *u, V: *v, S: *s, P: *p, L: *l},
	}, false, 0
}

func buildSMP(args []string, stdout, stderr io.Writer) (scenario.Spec, bool, int) {
	fs := newFlagSet("smp", stderr)
	nodes := fs.Int("nodes", 4, "SMP nodes")
	ppn := fs.Int("ppn", 4, "compute processors per node")
	proxies := fs.Int("proxies", 1, "message proxies per node (MP design points)")
	scale := fs.String("scale", "small", "problem scale: test, small, full")
	appsCS := fs.String("apps", "LU,Barnes-Hut,Water,Sample,Wator", "applications")
	archCS := fs.String("archs", "HW1,MP1,MP2,SW1", "design points")
	obs := cli.AddObsFlags(fs)
	flt := cli.AddFaultFlags(fs)
	if err := fs.Parse(args); err != nil {
		return scenario.Spec{}, true, 2
	}
	spec := scenario.Spec{
		Kind:     scenario.KindSMP,
		Scale:    *scale,
		Apps:     cli.SplitList(*appsCS),
		Archs:    cli.SplitList(*archCS),
		Topology: scenario.Topology{Nodes: *nodes, PPN: *ppn, Proxies: *proxies},
	}
	obs(&spec)
	flt(&spec)
	return spec, false, 0
}

func buildQueue(args []string, stdout, stderr io.Writer) (scenario.Spec, bool, int) {
	fs := newFlagSet("queue", stderr)
	scale := fs.String("scale", "small", "problem scale: test, small, full")
	appsCS := fs.String("apps", "LU,Barnes-Hut,Water,Sample,Wator,P-Ray,Moldy", "applications")
	ppn := fs.Int("ppn", 4, "compute processors per node for the compute-vs-communicate rule")
	obs := cli.AddObsFlags(fs)
	flt := cli.AddFaultFlags(fs)
	if err := fs.Parse(args); err != nil {
		return scenario.Spec{}, true, 2
	}
	spec := scenario.Spec{
		Kind:     scenario.KindQueue,
		Scale:    *scale,
		Apps:     cli.SplitList(*appsCS),
		Topology: scenario.Topology{PPN: *ppn},
	}
	obs(&spec)
	flt(&spec)
	return spec, false, 0
}

func buildFault(args []string, stdout, stderr io.Writer) (scenario.Spec, bool, int) {
	fs := newFlagSet("fault", stderr)
	archCS := fs.String("archs", "HW1,MP1,SW1", "comma-separated design points")
	rateCS := fs.String("rates", "0,1e-4,1e-3,1e-2", "comma-separated packet drop rates")
	seed := fs.Uint64("seed", 1, "fault plane PRNG seed")
	csv := fs.Bool("csv", false, "emit the sweep as CSV")
	benchJSON := fs.String("bench-json", "", "also write the sweep as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return scenario.Spec{}, true, 2
	}
	rates, err := cli.ParseFloats(*rateCS)
	if err != nil {
		fmt.Fprintln(stderr, "mproxy fault:", err)
		return scenario.Spec{}, true, 2
	}
	spec := scenario.Spec{
		Kind:  scenario.KindLoss,
		Archs: cli.SplitList(*archCS),
		Rates: rates,
		Fault: scenario.FaultSpec{Seed: *seed},
	}
	if *csv {
		spec.Out.Format = "csv"
	}
	spec.Out.BenchJSON = *benchJSON
	return spec, false, 0
}

func buildProf(args []string, stdout, stderr io.Writer) (scenario.Spec, bool, int) {
	fs := newFlagSet("prof", stderr)
	archs := fs.String("archs", "MP0,MP1,MP2,HW0,HW1,SW1",
		"comma-separated design points to profile")
	ops := fs.String("op", "PUT,GET", "comma-separated operations (PUT, GET)")
	n := fs.Int("n", 64, "payload bytes per message")
	reps := fs.Int("reps", 8, "round trips per scenario")
	period := fs.Int64("period", 0, "timeline window length in ns (0 = default)")
	breakdown := fs.Bool("breakdown", true, "print the measured-vs-model breakdown tables")
	profOut := fs.String("prof", "", "write the combined profile JSON to this file")
	chromeOut := fs.String("chrome", "",
		"write Chrome trace-event JSON to this file (arch/op inserted into the name when the matrix has several scenarios)")
	benchJSON := fs.String("bench-json", "", "also write the breakdown rows as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return scenario.Spec{}, true, 2
	}
	bd := *breakdown
	return scenario.Spec{
		Kind:     scenario.KindProf,
		Archs:    cli.SplitList(*archs),
		Ops:      cli.SplitList(*ops),
		Bytes:    *n,
		Reps:     *reps,
		PeriodNs: *period,
		Out: scenario.OutSpec{
			Breakdown: &bd, Prof: *profOut, Chrome: *chromeOut, BenchJSON: *benchJSON,
		},
	}, false, 0
}

// buildBench runs the fixed performance suite (internal/bench), writes
// the mproxy-bench/v1 JSON, and optionally gates against a checked-in
// baseline: any benchmark whose throughput regresses past the tolerance
// fails the invocation.
func buildBench(args []string, stdout, stderr io.Writer) (scenario.Spec, bool, int) {
	fs := newFlagSet("bench", stderr)
	quick := fs.Bool("quick", false, "label the output as a CI shard run (every row runs its full shape either way)")
	out := fs.String("out", "", "write the suite JSON to this file (default: stdout)")
	baseline := fs.String("baseline", "", "BENCH_*.json to compare against; regressions fail the run")
	tol := fs.Float64("tolerance", 0.10, "allowed fractional throughput regression vs -baseline")
	if err := fs.Parse(args); err != nil {
		return scenario.Spec{}, true, 2
	}
	s, err := bench.Run(bench.Options{Quick: *quick})
	if err != nil {
		fmt.Fprintln(stderr, "mproxy bench:", err)
		return scenario.Spec{}, true, 1
	}
	if *out != "" {
		if err := os.WriteFile(*out, s.JSON(), 0o644); err != nil {
			fmt.Fprintln(stderr, "mproxy bench:", err)
			return scenario.Spec{}, true, 1
		}
	} else {
		stdout.Write(s.JSON())
	}
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(stderr, "mproxy bench: baseline:", err)
			return scenario.Spec{}, true, 1
		}
		base, err := bench.ParseJSON(data)
		if err != nil {
			fmt.Fprintln(stderr, "mproxy bench: baseline:", err)
			return scenario.Spec{}, true, 1
		}
		bench.WriteComparison(stderr, s, base)
		if err := bench.Compare(s, base, *tol); err != nil {
			fmt.Fprintln(stderr, "mproxy bench:", err)
			return scenario.Spec{}, true, 1
		}
		fmt.Fprintf(stderr, "bench: no regression vs %s (tolerance %.0f%%)\n", *baseline, *tol*100)
	}
	return scenario.Spec{}, true, 0
}

func buildRun(args []string, stdout, stderr io.Writer) (scenario.Spec, bool, int) {
	fs := newFlagSet("run", stderr)
	manifestOut := fs.String("manifest", "", "also write the run manifest JSON to this file")
	forensics := fs.String("forensics", "", "override the serving forensics output directory (must exist; empty keeps the spec's)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile (post-run, after GC) to this file")
	shards := fs.Int("shards", -1, "simulation shards for parallel-eligible runs: N explicit, 0 auto (largest divisor of the node count within GOMAXPROCS), -1 keeps the spec's; ineligible specs warn and run sequentially")
	if err := fs.Parse(args); err != nil {
		return scenario.Spec{}, true, 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: mproxy run [-manifest file] [-forensics dir] [-shards n] [-cpuprofile file] [-memprofile file] <preset|spec.json>")
		return scenario.Spec{}, true, 2
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
			return scenario.Spec{}, true, 1
		}
		spec, rerr = scenario.ParseJSON(data)
		if rerr != nil {
			fmt.Fprintln(stderr, "mproxy run:", rerr)
			return scenario.Spec{}, true, 1
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
			return scenario.Spec{}, true, 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "mproxy run: cpuprofile:", err)
			return scenario.Spec{}, true, 1
		}
		defer pprof.StopCPUProfile()
	}
	m, err := scenario.Run(spec, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "mproxy:", err)
		return scenario.Spec{}, true, 1
	}
	stderr.Write(m.JSON())
	if *manifestOut != "" {
		if err := os.WriteFile(*manifestOut, m.JSON(), 0o644); err != nil {
			fmt.Fprintln(stderr, "mproxy run: manifest:", err)
			return scenario.Spec{}, true, 1
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(stderr, "mproxy run: memprofile:", err)
			return scenario.Spec{}, true, 1
		}
		defer f.Close()
		runtime.GC() // report live objects, not transient garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(stderr, "mproxy run: memprofile:", err)
			return scenario.Spec{}, true, 1
		}
	}
	return scenario.Spec{}, true, 0
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
