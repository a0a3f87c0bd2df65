// Package scenario is the repository's single experiment-description
// layer: a declarative Spec names everything a run needs — the design
// points, the cluster topology, the workload and its scale, message
// sizes and repetition counts, the fault-injection and
// reliable-transport configuration, the observability sinks, and the
// output format. Every experiment the repository can reproduce (each
// results/*.txt table and figure of the paper) is a named preset, and
// any other configuration is a spec.json file; every entry point —
// mproxy run, the CI smoke matrix, the benchmark harness — funnels
// through Run, which validates the spec, wires the drivers, and emits a
// deterministic run manifest (spec hash, seed, output digest) alongside
// the rendered output.
package scenario

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"mproxy/internal/apps/registry"
	"mproxy/internal/arch"
	"mproxy/internal/fault"
	"mproxy/internal/proxy"
)

// Kinds: one per experiment shape (table/figure family) the repository
// reproduces.
const (
	KindModel       = "model"        // Section 4 analytic model (section4_model.txt)
	KindMicroParams = "micro-params" // Table 3 design-point parameters
	KindMicroTable4 = "micro-table4" // Table 4 micro-benchmarks
	KindMicroSweep  = "micro-sweep"  // Figure 7 ping-pong sweeps
	KindAppsList    = "apps-list"    // Table 5 application listing
	KindAppsFigure8 = "apps-figure8" // Figure 8 speedup matrix
	KindAppsTable6  = "apps-table6"  // Table 6 message statistics
	KindSMP         = "smp"          // Figure 9 SMP-contention runs
	KindQueue       = "queue"        // Section 5.4 queueing analysis
	KindLoss        = "loss"         // reliable-transport loss sweep
	KindProf        = "prof"         // profiled phase-breakdown scenarios
	KindServing     = "serving"      // open-loop KV serving sweep (serving*.txt)
	KindProxySweep  = "proxy-sweep"  // proxies-per-node x sched-policy design sweep
)

// Kinds lists every valid Spec.Kind.
var Kinds = []string{
	KindModel, KindMicroParams, KindMicroTable4, KindMicroSweep,
	KindAppsList, KindAppsFigure8, KindAppsTable6,
	KindSMP, KindQueue, KindLoss, KindProf, KindServing, KindProxySweep,
}

// Topology describes the simulated cluster shape for kinds that run
// applications.
type Topology struct {
	Nodes   int `json:"nodes,omitempty"`   // SMP nodes
	PPN     int `json:"ppn,omitempty"`     // compute processors per node
	Proxies int `json:"proxies,omitempty"` // message proxies per node (MP points)
	// ProxySched names the proxy-scheduling policy binding endpoints to
	// proxies (proxy.SchedByName: static, shard, steal). Empty keeps the
	// default static slot-modulo binding, so every pre-existing spec
	// hashes and runs unchanged.
	ProxySched string `json:"proxy_sched,omitempty"`
	// SimShards > 1 asks the serving kind to simulate each load point on
	// a sharded cluster: nodes split into contiguous equal blocks, one
	// engine per block on its own OS thread, synchronized in lookahead
	// windows of the wire latency (internal/sim/par). Experiment output
	// is identical to the sequential run; only wall-clock time changes.
	// Ineligible specs (see ParallelEligible) warn and run sequentially.
	// 0 or 1 keeps sequential execution, so pre-existing specs hash and
	// run unchanged.
	SimShards int `json:"sim_shards,omitempty"`
}

// FaultSpec configures deterministic fault injection for the run.
type FaultSpec struct {
	// Spec is the fault-injection description, e.g.
	// "drop=1e-3,corrupt=1e-4,down=0@1ms-2ms" (see internal/fault.Parse).
	// Empty injects nothing and runs the exact zero-fault schedule.
	Spec string `json:"spec,omitempty"`
	// Seed keys every fault PRNG stream; default 1. Loss sweeps also use
	// it as the per-rate plane seed.
	Seed uint64 `json:"seed,omitempty"`
	// Rel runs inter-node traffic over the reliable transport when faults
	// are active; default true.
	Rel *bool `json:"rel,omitempty"`
}

// ObsSpec selects observability collectors for the run (the trace
// digest, metrics counters, span/timeline profiling), fed by one tracer
// that spans every engine the run builds. Their reports are appended to
// the run's output after the experiment.
type ObsSpec struct {
	Trace     bool   `json:"trace,omitempty"`
	Metrics   string `json:"metrics,omitempty"` // "", "text" or "json"
	Prof      string `json:"prof,omitempty"`    // profile JSON output path
	Chrome    string `json:"chrome,omitempty"`  // Chrome trace-event output path
	Breakdown bool   `json:"breakdown,omitempty"`
	// Forensics, when set, directs the serving kind's flight-recorder
	// output — the slowest-requests table, the per-shard/per-tier
	// windowed series JSON, and the Chrome exemplar trace — into this
	// directory, which must already exist. Serving-only. Unlike the
	// collectors above it needs no tracer, so it never degrades the
	// worker pool and never perturbs timing.
	Forensics string `json:"forensics,omitempty"`
}

// Enabled reports whether any tracer-fed collector is requested.
// Forensics is deliberately excluded: the flight recorder travels with
// the serving experiment, not the tracer.
func (o ObsSpec) Enabled() bool {
	return o.Trace || o.Metrics != "" || o.Prof != "" || o.Chrome != "" || o.Breakdown
}

// OutSpec selects the output format and side-channel files.
type OutSpec struct {
	// Format is "table" (default) or "csv" for kinds with a CSV form
	// (micro-sweep, apps-figure8, loss).
	Format string `json:"format,omitempty"`
	// BenchJSON, when set, also writes machine-readable benchmark results
	// to this file (micro-table4, micro-sweep, apps-figure8, loss, prof).
	BenchJSON string `json:"bench_json,omitempty"`
	// Prof and Chrome are the profile/Chrome-trace output paths of the
	// prof kind (other kinds use Obs for these sinks).
	Prof   string `json:"prof,omitempty"`
	Chrome string `json:"chrome,omitempty"`
	// Breakdown prints the prof kind's measured-vs-model tables; default
	// true.
	Breakdown *bool `json:"breakdown,omitempty"`
}

// ServingSpec parameterizes the serving kind: the open-loop KV sweep of
// internal/workload/openloop. The cluster shape comes from Topology
// (Nodes, Proxies); the fields here describe the service and the
// generator.
type ServingSpec struct {
	// Topo selects the interconnect: "fat-tree", "dragonfly", or "flat"
	// for the paper's single-switch model.
	Topo string `json:"topo,omitempty"`
	// Clients is the client processes per node; slot 0 of every node is
	// the KV server.
	Clients int `json:"clients,omitempty"`

	ValueBytes  int `json:"value_bytes,omitempty"`
	ScanCount   int `json:"scan_count,omitempty"`
	Replication int `json:"replication,omitempty"`
	// Keys is the key-space size; Theta the Zipfian skew (negative =
	// uniform, since 0 means "use the default").
	Keys  int     `json:"keys,omitempty"`
	Theta float64 `json:"theta,omitempty"`
	// Arrival is the arrival process: "poisson" or "onoff" (bursty
	// interrupted-Poisson).
	Arrival string `json:"arrival,omitempty"`

	// Requests and Warmup are per-load-point request counts across all
	// clients; warmup requests run but are not measured.
	Requests int `json:"requests,omitempty"`
	Warmup   int `json:"warmup,omitempty"`
	// LoadUs is the sweep ladder: per-client mean inter-arrival time in
	// microseconds, ordered lightest load (largest) first.
	LoadUs []float64 `json:"load_us,omitempty"`

	// ProxyCounts and Scheds are the proxy-sweep kind's design grid:
	// every (policy, proxies-per-node) cell runs the full load ladder.
	// Proxy-sweep only; the serving kind takes a single design point via
	// Topology.Proxies and Topology.ProxySched.
	ProxyCounts []int    `json:"proxy_counts,omitempty"`
	Scheds      []string `json:"scheds,omitempty"`
}

// ModelParams are the Section 4 analytic-model primitives.
type ModelParams struct {
	C float64 `json:"c"` // cache miss latency (us)
	U float64 `json:"u"` // uncached access latency (us)
	V float64 `json:"v"` // vm_att/vm_det latency (us)
	S float64 `json:"s"` // processor speed (multiple of 75 MHz)
	P float64 `json:"p"` // polling delay (us)
	L float64 `json:"l"` // network latency (us)
}

// DefaultModelParams are the paper's G30 measurements (Table 1).
func DefaultModelParams() ModelParams {
	return ModelParams{C: 1.0, U: 0.65, V: 1.3 / 3, S: 1.0, P: 3.0, L: 1.0}
}

// Spec is one declarative experiment description. The zero value of
// every field means "use the kind's default"; Normalize fills defaults
// in and Validate rejects contradictions. Specs round-trip through JSON.
type Spec struct {
	// Name labels the run (presets use their registry name).
	Name string `json:"name,omitempty"`
	// Kind selects the experiment shape; see the Kind constants.
	Kind string `json:"kind"`

	// Archs are the design points to run (HW0, HW1, MP0, MP1, MP2, SW1).
	Archs []string `json:"archs,omitempty"`
	// Apps are the applications to run (apps-*, smp and queue kinds).
	Apps []string `json:"apps,omitempty"`
	// Scale is the problem scale: test, small (default) or full.
	Scale string `json:"scale,omitempty"`
	// Procs are the processor counts of the apps-figure8 matrix.
	Procs []int `json:"procs,omitempty"`
	// Topology is the cluster shape for the smp and queue kinds.
	Topology Topology `json:"topology,omitzero"`

	// Sizes are the micro-sweep message sizes in bytes.
	Sizes []int `json:"sizes,omitempty"`
	// Bytes is the prof payload size; Reps its round-trip count.
	Bytes int `json:"bytes,omitempty"`
	Reps  int `json:"reps,omitempty"`
	// Ops are the profiled operations (PUT, GET).
	Ops []string `json:"ops,omitempty"`
	// PeriodNs is the prof timeline sampling window (0 = default).
	PeriodNs int64 `json:"period_ns,omitempty"`
	// Rates are the loss-sweep packet drop rates.
	Rates []float64 `json:"rates,omitempty"`
	// Jobs bounds the apps-figure8 worker pool: 0 defaults to 1 (serial),
	// negative uses all CPUs. Results are bit-identical at any worker
	// count.
	Jobs int `json:"jobs,omitempty"`

	// HeapBytes sizes the per-rank Split-C heap; 0 picks the scale's
	// default (8 MiB, or 128 MiB at full scale).
	HeapBytes int `json:"heap_bytes,omitempty"`
	// CommandQueueCap overrides the per-CPU command-queue capacity
	// (0 = comm.DefaultCommandQueueCap). Carried per fabric: concurrent
	// runs with different capacities never interfere.
	CommandQueueCap int `json:"command_queue_cap,omitempty"`

	// Model overrides the Section 4 analytic-model primitives.
	Model *ModelParams `json:"model,omitempty"`

	// Serving parameterizes the serving kind's open-loop KV sweep.
	Serving *ServingSpec `json:"serving,omitempty"`

	Fault FaultSpec `json:"fault,omitzero"`
	Obs   ObsSpec   `json:"obs,omitzero"`
	Out   OutSpec   `json:"out,omitzero"`
}

// boolPtr returns a pointer to b, for the Spec's optional bools.
func boolPtr(b bool) *bool { return &b }

// sweepSizes is the Figure 7 message-size ladder.
func sweepSizes() []int {
	return []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536}
}

// defaultArchs returns the kind's design-point selection when the spec
// names none.
func defaultArchs(kind string) []string {
	switch kind {
	case KindAppsFigure8:
		return []string{"HW0", "HW1", "MP0", "MP1", "MP2", "SW1"}
	case KindSMP:
		return []string{"HW1", "MP1", "MP2", "SW1"}
	case KindLoss:
		return []string{"HW1", "MP1", "SW1"}
	case KindProf:
		return []string{"MP0", "MP1", "MP2", "HW0", "HW1", "SW1"}
	default: // micro kinds: all design points, canonical order
		var out []string
		for _, a := range arch.All {
			out = append(out, a.Name)
		}
		return out
	}
}

func defaultApps(kind string) []string {
	switch kind {
	case KindSMP:
		return []string{"LU", "Barnes-Hut", "Water", "Sample", "Wator"}
	case KindQueue:
		return []string{"LU", "Barnes-Hut", "Water", "Sample", "Wator", "P-Ray", "Moldy"}
	default: // apps-* kinds: the whole Table 5 suite
		var out []string
		for _, s := range registry.All() {
			out = append(out, s.Name)
		}
		return out
	}
}

// Normalize fills in the kind's defaults and returns the canonical spec
// the run manifest hashes. It does not validate; call Validate (or use
// Run, which does both).
func (s Spec) Normalize() Spec {
	switch s.Kind {
	case KindMicroParams, KindMicroTable4, KindMicroSweep, KindAppsFigure8, KindSMP, KindLoss, KindProf:
		if len(s.Archs) == 0 {
			s.Archs = defaultArchs(s.Kind)
		}
	}
	switch s.Kind {
	case KindAppsList, KindAppsFigure8, KindAppsTable6, KindSMP, KindQueue:
		if len(s.Apps) == 0 {
			s.Apps = defaultApps(s.Kind)
		}
		if s.Scale == "" {
			s.Scale = "small"
		}
		if s.HeapBytes == 0 && s.Scale == "full" {
			s.HeapBytes = 128 << 20
		}
	}
	switch s.Kind {
	case KindAppsFigure8:
		if len(s.Procs) == 0 {
			s.Procs = []int{1, 2, 4, 8, 16}
		}
		if s.Jobs == 0 {
			s.Jobs = 1
		}
	case KindSMP:
		if s.Topology.Nodes == 0 {
			s.Topology.Nodes = 4
		}
		if s.Topology.PPN == 0 {
			s.Topology.PPN = 4
		}
		if s.Topology.Proxies == 0 {
			s.Topology.Proxies = 1
		}
	case KindQueue:
		if s.Topology.PPN == 0 {
			s.Topology.PPN = 4
		}
	case KindMicroSweep:
		if len(s.Sizes) == 0 {
			s.Sizes = sweepSizes()
		}
	case KindLoss:
		if len(s.Rates) == 0 {
			s.Rates = []float64{0, 1e-4, 1e-3, 1e-2}
		}
	case KindProf:
		if s.Bytes == 0 {
			s.Bytes = 64
		}
		if s.Reps == 0 {
			s.Reps = 8
		}
		if len(s.Ops) == 0 {
			s.Ops = []string{"PUT", "GET"}
		}
		if s.Out.Breakdown == nil {
			s.Out.Breakdown = boolPtr(true)
		}
	case KindModel:
		if s.Model == nil {
			m := DefaultModelParams()
			s.Model = &m
		}
	case KindServing, KindProxySweep:
		if len(s.Archs) == 0 {
			s.Archs = []string{"MP1"}
		}
		if s.Topology.Nodes == 0 {
			s.Topology.Nodes = 16
		}
		if s.Topology.Proxies == 0 {
			s.Topology.Proxies = 1
		}
		sv := ServingSpec{}
		if s.Serving != nil {
			sv = *s.Serving
		}
		if sv.Topo == "" {
			sv.Topo = "fat-tree"
		}
		if sv.Clients == 0 {
			sv.Clients = 2
		}
		if sv.ValueBytes == 0 {
			sv.ValueBytes = 64
		}
		if sv.ScanCount == 0 {
			sv.ScanCount = 16
		}
		if sv.Replication == 0 {
			sv.Replication = 2
		}
		if sv.Keys == 0 {
			sv.Keys = 1 << 16
		}
		if sv.Theta == 0 {
			sv.Theta = 0.99
		}
		if sv.Arrival == "" {
			sv.Arrival = "poisson"
		}
		if sv.Requests == 0 {
			sv.Requests = 20000
		}
		if sv.Warmup == 0 {
			sv.Warmup = 2000
		}
		if len(sv.LoadUs) == 0 {
			sv.LoadUs = []float64{40, 20, 10, 5}
		}
		if s.Kind == KindProxySweep {
			if len(sv.ProxyCounts) == 0 {
				sv.ProxyCounts = []int{1, 2, 4}
			}
			if len(sv.Scheds) == 0 {
				sv.Scheds = proxy.SchedNames()
			}
		}
		s.Serving = &sv
	}
	if s.Fault.Seed == 0 {
		s.Fault.Seed = 1
	}
	if s.Fault.Rel == nil {
		s.Fault.Rel = boolPtr(true)
	}
	if s.Out.Format == "" {
		s.Out.Format = "table"
	}
	return s
}

// Validate checks a (normalized or raw) spec and returns the first
// problem found.
func (s Spec) Validate() error {
	known := false
	for _, k := range Kinds {
		if s.Kind == k {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("scenario: unknown kind %q (want one of %s)", s.Kind, strings.Join(Kinds, ", "))
	}
	for _, name := range s.Archs {
		if _, ok := arch.ByName(name); !ok {
			return fmt.Errorf("scenario: unknown architecture %q", name)
		}
	}
	for _, name := range s.Apps {
		if _, err := registry.ByName(name); err != nil {
			return fmt.Errorf("scenario: unknown application %q", name)
		}
	}
	switch s.Scale {
	case "", "test", "small", "full":
	default:
		return fmt.Errorf("scenario: unknown scale %q (want test, small or full)", s.Scale)
	}
	for _, p := range s.Procs {
		if p <= 0 {
			return fmt.Errorf("scenario: processor count must be positive, got %d", p)
		}
	}
	for _, n := range s.Sizes {
		if n <= 0 {
			return fmt.Errorf("scenario: message size must be positive, got %d", n)
		}
	}
	if s.Reps < 0 {
		return fmt.Errorf("scenario: iteration count must be positive, got %d", s.Reps)
	}
	if s.Bytes < 0 {
		return fmt.Errorf("scenario: payload size must be positive, got %d", s.Bytes)
	}
	if s.HeapBytes < 0 {
		return fmt.Errorf("scenario: heap size must be non-negative, got %d", s.HeapBytes)
	}
	if s.CommandQueueCap < 0 {
		return fmt.Errorf("scenario: command-queue capacity must be non-negative, got %d", s.CommandQueueCap)
	}
	if s.Topology.Nodes < 0 || s.Topology.PPN < 0 || s.Topology.Proxies < 0 {
		return fmt.Errorf("scenario: topology counts must be non-negative, got %+v", s.Topology)
	}
	if s.Topology.SimShards < 0 {
		return fmt.Errorf("scenario: negative SimShards %d", s.Topology.SimShards)
	}
	if _, err := proxy.SchedByName(s.Topology.ProxySched); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	for _, op := range s.Ops {
		if op != "PUT" && op != "GET" {
			return fmt.Errorf("scenario: unsupported op %q (want PUT or GET)", op)
		}
	}
	for _, r := range s.Rates {
		if r < 0 || r > 1 {
			return fmt.Errorf("scenario: drop rate must be in [0,1], got %g", r)
		}
	}
	if _, err := fault.Parse(s.Fault.Spec, s.Fault.Seed); err != nil {
		return fmt.Errorf("scenario: bad fault spec: %w", err)
	}
	if s.Kind == KindServing || s.Kind == KindProxySweep {
		if err := s.validateServing(); err != nil {
			return err
		}
	}
	if s.Obs.Forensics != "" && s.Kind != KindServing {
		return fmt.Errorf("scenario: forensics output is only available for the serving kind, got %q", s.Kind)
	}
	switch s.Obs.Metrics {
	case "", "text", "json":
	default:
		return fmt.Errorf(`scenario: metrics must be "text" or "json", got %q`, s.Obs.Metrics)
	}
	switch s.Out.Format {
	case "", "table", "csv":
	default:
		return fmt.Errorf(`scenario: format must be "table" or "csv", got %q`, s.Out.Format)
	}
	// Output fields only some kinds read: anything else would be silently
	// ignored, so a spec that sets one for another kind is a mistake.
	for _, f := range []struct {
		field string
		set   bool
		kinds []string
	}{
		{`out.format "csv"`, s.Out.Format == "csv", []string{KindMicroSweep, KindAppsFigure8, KindLoss}},
		{"out.bench_json", s.Out.BenchJSON != "", []string{KindMicroTable4, KindMicroSweep, KindAppsFigure8, KindLoss, KindProf}},
		{"out.prof", s.Out.Prof != "", []string{KindProf}},
		{"out.chrome", s.Out.Chrome != "", []string{KindProf}},
		{"out.breakdown", s.Out.Breakdown != nil, []string{KindProf}},
	} {
		if f.set && !slices.Contains(f.kinds, s.Kind) {
			return fmt.Errorf("scenario: kind %q ignores %s (read only by: %s)", s.Kind, f.field, strings.Join(f.kinds, ", "))
		}
	}
	return nil
}

// validateServing checks the extra constraints shared by the serving and
// proxy-sweep kinds.
func (s Spec) validateServing() error {
	for _, name := range s.Archs {
		if a, ok := arch.ByName(name); ok && a.Kind == arch.Syscall {
			return fmt.Errorf("scenario: serving does not support the syscall design point %s (no run-to-completion form)", name)
		}
		if s.Kind == KindProxySweep {
			if a, ok := arch.ByName(name); ok && a.Kind != arch.Proxy {
				return fmt.Errorf("scenario: proxy-sweep needs message-proxy design points, got %s (no proxies to schedule)", name)
			}
		}
	}
	if s.Fault.Spec != "" {
		return fmt.Errorf("scenario: serving does not support fault injection (dropped requests would stall the open-loop accounting)")
	}
	sv := s.Serving
	if sv == nil {
		return nil // Normalize fills the defaults
	}
	switch sv.Topo {
	case "", "flat", "fat-tree", "dragonfly":
	default:
		return fmt.Errorf("scenario: unknown serving topology %q (want flat, fat-tree or dragonfly)", sv.Topo)
	}
	switch sv.Arrival {
	case "", "poisson", "onoff":
	default:
		return fmt.Errorf("scenario: unknown arrival process %q (want poisson or onoff)", sv.Arrival)
	}
	if sv.Clients < 0 || sv.ValueBytes < 0 || sv.ScanCount < 0 ||
		sv.Replication < 0 || sv.Keys < 0 || sv.Requests < 0 || sv.Warmup < 0 {
		return fmt.Errorf("scenario: serving counts must be non-negative, got %+v", *sv)
	}
	for _, u := range sv.LoadUs {
		if u <= 0 {
			return fmt.Errorf("scenario: serving load points must be positive, got %g us", u)
		}
	}
	if s.Kind == KindServing && (len(sv.ProxyCounts) > 0 || len(sv.Scheds) > 0) {
		return fmt.Errorf("scenario: proxy_counts/scheds belong to the proxy-sweep kind; the serving kind takes topology.proxies and topology.proxy_sched")
	}
	for _, c := range sv.ProxyCounts {
		if c <= 0 {
			return fmt.Errorf("scenario: proxy counts must be positive, got %d", c)
		}
	}
	for _, name := range sv.Scheds {
		if _, err := proxy.SchedByName(name); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	return nil
}

// ParseJSON decodes a spec from JSON, rejecting unknown fields so typos
// in hand-written spec files fail loudly.
func ParseJSON(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse spec: %w", err)
	}
	return s, nil
}

// JSON encodes the spec canonically (indented, stable field order).
func (s Spec) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
