package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"mproxy/internal/machine"
	"mproxy/internal/memory"
	"mproxy/internal/scenario"
	"mproxy/internal/sim"
	"mproxy/internal/trace"
	"mproxy/internal/trace/metrics"
)

// TestMain lets the test binary stand in for the benchmark's children.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := childMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each input.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if s.Q1 != c.want[0] || s.Median != c.want[1] || s.Q3 != c.want[2] {
			t.Errorf("summarize(%v) = q1 %g median %g q3 %g, want %v", c.xs, s.Q1, s.Median, s.Q3, c.want)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc", "mproxy/internal/am.(*Port).Send"}, "gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "mproxy/internal/splitc.New"}, "alloc"},
		{[]string{"runtime.gogo", "runtime.coroswitch_m", "runtime.mcall", "runtime.coroswitch", "iter.Pull[...].func1", "mproxy/internal/sim.(*Proc).Park"}, "coro"},
		{[]string{"runtime.duffcopy", "mproxy/internal/machine/topo.(*Net).Ship", "mproxy/internal/comm.(*Fabric).send"}, "topo"},
		{[]string{"mproxy/internal/proxy.(*CommandQueue[go.shape.struct { mproxy/internal/comm.x int }]).Len"}, "proxy"},
		{[]string{"mproxy/internal/apps/moldy.step"}, "apps"},
		{[]string{"mproxy/internal/splitc.(*Ctx).Get.func1"}, "progmodel"},
		{[]string{"mproxy/internal/workload/openloop.(*client).fire"}, "openloop"},
		{[]string{"mproxy/internal/workload.RunJobs.func2"}, "workload"},
		{[]string{"mproxy/internal/fault.Stream.Float64"}, "other"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
	}
	for _, c := range cases {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// busySim keeps a simulation engine's event heap busy for about d.
func busySim(d time.Duration) {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		eng := sim.NewEngine()
		n := 0
		var tick func()
		tick = func() {
			if n < 100000 {
				n++
				eng.Schedule(sim.Time(n%97+1), tick)
			}
		}
		for i := 0; i < 256; i++ {
			eng.Schedule(sim.Time(i), tick)
		}
		if err := eng.Run(); err != nil {
			panic(err)
		}
	}
}

func TestFoldProfileOfBusyEngine(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	busySim(time.Second)
	pprof.StopCPUProfile()
	shares, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum, modules float64
	for _, l := range profileLayers {
		sum += shares[l]
		switch l {
		case "gc", "alloc", "coro", "runtime":
		default:
			modules += shares[l]
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("layer shares sum to %g, want 1: %v", sum, shares)
	}
	// Under the race detector many samples end in its runtime, so judge
	// the engine's share of the samples charged to a module.
	if modules == 0 || shares["sim"]/modules < 0.8 {
		t.Errorf("sim has %.2f of the module samples of a profile spent in the event engine, want > 0.8: %v",
			shares["sim"]/modules, shares)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := foldProfile([]byte{0x0a, 0xff}); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestSplitMetrics(t *testing.T) {
	coll := metrics.NewCollector()
	for _, ev := range []trace.Event{
		{Kind: trace.KFire}, {Kind: trace.KFire}, {Kind: trace.KFire},
		{Kind: trace.KPark, Comp: "rank0"},
		{Kind: trace.KScan, Comp: "node0.proxy0.scan", Arg: trace.ScanArg(2, 1, true)},
		{Kind: trace.KScan, Comp: "node1.proxy0.scan", Arg: trace.ScanArg(1, 0, false)},
		{Kind: trace.KEnqueue, Comp: "rank1.cmdq", Arg: 1},
	} {
		coll.Record(ev)
	}
	report, err := coll.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{"", "Figure 8\n  procs {1}\n"} {
		got, snap, err := splitMetrics([]byte(body + report + "\n"))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != body {
			t.Errorf("body = %q, want %q", got, body)
		}
		want := map[string]uint64{
			"sim.events": 3, "sim.parks": 1, "comm.agent_items": 0, "comm.ops": 0, "queue.ops": 1,
			"proxy.scan_passes": 2, "proxy.scan_found": 1, "proxy.scan_probes": 3,
		}
		if c := countsOf(snap); !reflect.DeepEqual(c, want) {
			t.Errorf("counts = %v, want %v", c, want)
		}
	}
	if _, _, err := splitMetrics([]byte("no report\n")); err == nil {
		t.Error("output without a metrics report split without error")
	}
}

// shape is what the set-up mirror must build the same as scenario.Run.
type shape struct {
	Nodes, PPN, Proxies, Agents int
	Net                         bool
	Segments                    []int // bytes per registered segment, in ASID order
}

func shapeOf(cl *machine.Cluster) shape {
	s := shape{Nodes: cl.Cfg.Nodes, PPN: cl.Cfg.ProcsPerNode, Proxies: cl.Cfg.ProxiesPerNode,
		Agents: len(cl.Nodes[0].Agents), Net: cl.Net != nil}
	for id := memory.ASID(1); ; id++ {
		seg, ok := cl.Reg.Segment(id)
		if !ok {
			break
		}
		s.Segments = append(s.Segments, len(seg.Data))
	}
	return s
}

// capture records every cluster machine.New builds while f runs.
func capture(f func()) []*machine.Cluster {
	var cls []*machine.Cluster
	machine.OnNewCluster(func(cl *machine.Cluster) { cls = append(cls, cl) })
	defer machine.OnNewCluster(nil)
	f()
	return cls
}

// shrunkSpecs are small instances of each workload kind.
func shrunkSpecs() map[string]scenario.Spec {
	return map[string]scenario.Spec{
		"serving": {
			Name: "shrunk-serving", Kind: scenario.KindServing, Archs: []string{"MP1"},
			Topology:        scenario.Topology{Nodes: 16, Proxies: 2, ProxySched: "steal"},
			CommandQueueCap: 64,
			Serving: &scenario.ServingSpec{Topo: "fat-tree", Clients: 2, Keys: 1024, Theta: 0.99,
				Requests: 2000, Warmup: 200, LoadUs: []float64{120}},
			Obs: scenario.ObsSpec{Forensics: "per-rep temp dir"},
		},
		"apps-figure8": {
			Name: "shrunk-figure8", Kind: scenario.KindAppsFigure8, Apps: []string{"MM"},
			Archs: []string{"MP1", "SW1"}, Scale: "test", Procs: []int{1, 2}, Jobs: 1,
		},
	}
}

func TestSetupMirrorMatchesScenarioRun(t *testing.T) {
	for kind, spec := range shrunkSpecs() {
		t.Run(kind, func(t *testing.T) {
			spec.Obs.Forensics = "" // irrelevant to the clusters
			var err error
			run := capture(func() { _, err = scenario.Run(spec, io.Discard) })
			if err != nil {
				t.Fatal(err)
			}
			mirror := capture(func() {
				err = buildClusters(spec.Normalize(), &ctorTimer{sum: map[string]time.Duration{}})
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(run) == 0 || len(mirror) != len(run) {
				t.Fatalf("mirror built %d clusters, scenario.Run %d", len(mirror), len(run))
			}
			for i := range run {
				d, m := shapeOf(run[i]), shapeOf(mirror[i])
				// The applications register their own segments after the
				// stack is built; the stack's must match as a prefix.
				if len(m.Segments) == 0 && kind == "apps-figure8" || len(m.Segments) > len(d.Segments) {
					t.Fatalf("cluster %d: mirror has %d segments, scenario.Run %d", i, len(m.Segments), len(d.Segments))
				}
				d.Segments = d.Segments[:len(m.Segments)]
				if !reflect.DeepEqual(d, m) {
					t.Errorf("cluster %d: mirror %+v, scenario.Run %+v", i, m, d)
				}
			}
		})
	}
}

func TestShrunkSetPerWorkloadKind(t *testing.T) {
	for kind, spec := range shrunkSpecs() {
		t.Run(kind, func(t *testing.T) {
			w := &wlRun{name: kind, spec: spec.Normalize()}
			b := &bench{self: os.Args[0], dir: t.TempDir(), procs: 1, rec: &spanRecorder{}}
			cfg := setConfig{workloads: []*wlRun{w}, rounds: 2, trace: true}
			b.runSet(cfg)
			if w.failed != 0 || w.attempted != 6 {
				t.Fatalf("%d of %d children failed: %v", w.failed, w.attempted, w.failures)
			}
			if len(w.want) == 0 || (kind == "serving" && len(w.want) != 4) {
				t.Errorf("rep digests %v: want the output plus, for serving, three forensics files", w.want)
			}
			r := newReport(readHost(1), 1, cfg)
			raw, err := r.resultLine([]string{kind})
			if err != nil {
				t.Fatal(err)
			}
			var line struct {
				Correct bool
				Metrics map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal(raw, &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || len(line.Metrics) != len(perLayer) {
				t.Errorf("result line %s: want correct with all %d per-layer metrics", raw, len(perLayer))
			}
			if line.Metrics["sim.events"].Value <= 0 || line.Metrics["proc.cpu_s"].Value <= 0 {
				t.Errorf("result line %s: want events and CPU time", raw)
			}
			setupLayer := map[string]string{"serving": "setup.kv_s", "apps-figure8": "setup.splitc_s"}[kind]
			if line.Metrics[setupLayer].Value <= 0 {
				t.Errorf("%s = 0: set-up mirror timed nothing", setupLayer)
			}
			names := map[string]bool{}
			for _, s := range b.rec.withSelf() {
				names[s.Name] = true
				if s.End < s.Start || s.SelfNs < 0 {
					t.Errorf("span %+v: negative duration or self time", s)
				}
			}
			for _, n := range []string{"set", kind + " rep 1", "child timed", "scenario.Run", "machine"} {
				if !names[n] {
					t.Errorf("no %q span among %v", n, names)
				}
			}
			path := filepath.Join(b.dir, "r.json")
			if err := r.write(path); err != nil {
				t.Fatal(err)
			}
			// A set compared with itself never regresses or miscounts. The
			// error is not checked: two reps may leave a spread wider than
			// a bound, which compare reports as unresolved.
			var out bytes.Buffer
			_ = compareMain([]string{path, path}, &out)
			if s := out.String(); strings.Contains(s, "regressed") || !strings.Contains(s, "exact counts: all 8 equal") {
				t.Errorf("compare of a set with itself:\n%s", s)
			}
		})
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	steady := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	cases := []struct {
		a, b summary
		want string
	}{
		{steady(10), steady(10.5), "unchanged"},
		{steady(10), steady(11.5), "regressed"},
		{steady(10), steady(8), "improved"},
		{steady(10), summary{Median: 10, Q1: 8, Q3: 12}, "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%+v, %+v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareRequiresEqualCounts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, events uint64) string {
		wr := &wlReport{EndToEnd: map[string]metricSummary{}, Counts: map[string]uint64{"sim.events": events}}
		for _, d := range endToEnd {
			wr.EndToEnd[d.Name] = metricSummary{d, summarize([]float64{1, 1, 1})}
		}
		path := filepath.Join(dir, name)
		r := &report{Workloads: map[string]*wlReport{"serve-1k": wr}}
		if err := r.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, other := write("a.json", 10), write("b.json", 10), write("c.json", 11)
	if err := compareMain([]string{a, same}, io.Discard); err != nil {
		t.Errorf("identical sets: %v", err)
	}
	var out bytes.Buffer
	if err := compareMain([]string{a, other}, &out); err == nil || !strings.Contains(out.String(), "sim.events differs") {
		t.Errorf("sets with different event counts compared equal: %v\n%s", err, out.String())
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json in step with what
// the program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %+v, program %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %+v, program %+v", bj.PerLayer, perLayer)
	}
	for _, name := range workloadNames {
		if _, err := loadSpec(name, 1); err != nil {
			t.Error(err)
		}
	}
}
