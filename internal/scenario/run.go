package scenario

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mproxy/internal/comm"
	"mproxy/internal/fault"
	"mproxy/internal/machine"
	"mproxy/internal/rel"
	"mproxy/internal/sim"
	"mproxy/internal/trace"
	"mproxy/internal/trace/metrics"
	"mproxy/internal/trace/span"
	"mproxy/internal/trace/timeline"
	"mproxy/internal/workload"
)

// options is the resolved per-run simulation configuration: everything
// the spec's fault/transport/tuning fields distill to, in the shape the
// drivers consume. All of it travels explicitly — no process-wide
// installation, so concurrent runs with different options never
// interfere.
type options struct {
	fabric comm.Options
	plane  machine.FaultPlane
	heap   int
	// tracer, when non-nil, feeds the spec's observability collectors;
	// every experiment installs it on each engine it builds.
	tracer trace.Tracer
}

func (o options) workload() workload.Options {
	return workload.Options{Fabric: o.fabric, Fault: o.plane, HeapBytes: o.heap, Tracer: o.tracer}
}

// resolve distills a normalized spec and its observability tracer (nil
// when none is enabled) into experiment options and the human-readable
// fault description line printed ahead of the experiment's output.
func resolve(s Spec, tracer trace.Tracer) (options, string, error) {
	opt := options{
		fabric: comm.Options{
			CommandQueueCap: s.CommandQueueCap,
			ProxySched:      s.Topology.ProxySched,
		},
		heap:   s.HeapBytes,
		tracer: tracer,
	}
	cfg, err := fault.Parse(s.Fault.Spec, s.Fault.Seed)
	if err != nil {
		return options{}, "", fmt.Errorf("scenario: bad fault spec: %w", err)
	}
	if !cfg.Active() {
		return opt, "", nil
	}
	opt.plane = fault.NewPlane(cfg)
	if s.Fault.Rel == nil || *s.Fault.Rel {
		relCfg := rel.DefaultConfig()
		opt.fabric.Rel = &relCfg
		return opt, fmt.Sprintf("faults: %s (seed %d), reliable transport on", s.Fault.Spec, s.Fault.Seed), nil
	}
	return opt, fmt.Sprintf("faults: %s (seed %d), reliable transport OFF (operations may hang or lose data)", s.Fault.Spec, s.Fault.Seed), nil
}

// Run validates and executes one experiment, writing its rendered
// output to w and returning the run manifest. The output bytes are a
// pure function of the spec: the manifest's OutputSHA256 digests
// exactly what was written to w.
func Run(spec Spec, w io.Writer) (Manifest, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return Manifest{}, err
	}
	hash, err := specHash(spec)
	if err != nil {
		return Manifest{}, err
	}
	if err := checkOutputDirs(spec); err != nil {
		return Manifest{}, err
	}
	tracer, report := installObs(spec.Obs)
	defer report(io.Discard) // drained below on success; detaches on error paths
	opt, faultDesc, err := resolve(spec, tracer)
	if err != nil {
		return Manifest{}, err
	}
	dw := newDigestWriter(w)
	if faultDesc != "" && spec.Kind != KindLoss {
		fmt.Fprintln(dw, faultDesc)
	}
	if err := runKind(spec, opt, dw); err != nil {
		return Manifest{}, err
	}
	if err := report(dw); err != nil {
		return Manifest{}, err
	}
	return Manifest{
		Name:         spec.Name,
		Kind:         spec.Kind,
		SpecSHA256:   hash,
		Seed:         spec.Fault.Seed,
		OutputSHA256: dw.sum(),
		OutputBytes:  dw.n,
	}, nil
}

// checkOutputDirs fails before simulating when a side-channel output
// would land in a directory that does not exist: a long sweep that
// cannot write its outputs at the end would waste the whole run.
func checkOutputDirs(s Spec) error {
	if dir := s.Obs.Forensics; dir != "" {
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			return fmt.Errorf("scenario: forensics output directory %q does not exist (create it, or point -forensics elsewhere)", dir)
		}
	}
	for _, f := range []struct{ field, path string }{
		{"obs.prof", s.Obs.Prof},
		{"obs.chrome", s.Obs.Chrome},
		{"out.prof", s.Out.Prof},
		{"out.chrome", s.Out.Chrome},
		{"out.bench_json", s.Out.BenchJSON},
	} {
		if f.path == "" {
			continue
		}
		if st, err := os.Stat(filepath.Dir(f.path)); err != nil || !st.IsDir() {
			return fmt.Errorf("scenario: %s output directory %q does not exist (for %q)", f.field, filepath.Dir(f.path), f.path)
		}
	}
	return nil
}

// runKind dispatches a normalized, validated spec to its renderer.
func runKind(s Spec, opt options, w io.Writer) error {
	switch s.Kind {
	case KindModel:
		return renderModel(s, w)
	case KindMicroParams:
		return renderTable3(s, w)
	case KindMicroTable4:
		return renderTable4(s, opt, w)
	case KindMicroSweep:
		return renderFigure7(s, opt, w)
	case KindAppsList:
		return renderAppsList(s, w)
	case KindAppsFigure8:
		return renderFigure8(s, opt, w)
	case KindAppsTable6:
		return renderTable6(s, opt, w)
	case KindSMP:
		return renderSMP(s, opt, w)
	case KindQueue:
		return renderQueue(s, opt, w)
	case KindLoss:
		return renderLoss(s, opt, w)
	case KindProf:
		return renderProf(s, opt, w)
	case KindServing:
		return renderServing(s, opt, w)
	case KindProxySweep:
		return renderProxySweep(s, opt, w)
	}
	// Validate accepted the kind; every kind must be dispatched above.
	panic("scenario: unhandled kind " + s.Kind)
}

// installObs builds the spec's observability collectors and returns the
// tracer feeding them (nil when none is enabled) together with a report
// function that renders their summaries to the given writer, writes
// their output files, and detaches the timeline sampler; it returns the
// first sink that failed. The report runs at most once; later calls are
// no-ops, so the deferred cleanup in Run is safe after a successful
// explicit report. The experiments build engines internally, so resolve
// hands the tracer to each of them; one tracer spans every engine of the
// run, so the workload pool degrades to one worker when it is set.
func installObs(o ObsSpec) (tracer trace.Tracer, report func(io.Writer) error) {
	if !o.Enabled() {
		return nil, func(io.Writer) error { return nil }
	}
	var digest *trace.Digest
	var coll *metrics.Collector
	var asm *span.Assembler
	var smp *timeline.Sampler
	var tracers []trace.Tracer
	if o.Trace {
		digest = trace.NewDigest()
		tracers = append(tracers, digest)
	}
	if o.Metrics != "" {
		coll = metrics.NewCollector()
		tracers = append(tracers, coll)
	}
	if o.Prof != "" || o.Chrome != "" || o.Breakdown {
		asm = span.NewAssembler()
		smp = timeline.NewSampler(0)
		timeline.Attach(smp)
		tracers = append(tracers, asm, smp)
	}
	done := false
	return trace.Multi(tracers...), func(w io.Writer) error {
		if done {
			return nil
		}
		done = true
		if asm != nil {
			timeline.Detach()
		}
		if coll != nil {
			switch o.Metrics {
			case "json":
				out, err := coll.JSON()
				if err != nil {
					return fmt.Errorf("metrics: %w", err)
				}
				fmt.Fprintln(w, out)
			default:
				fmt.Fprint(w, coll.Summary())
			}
		}
		if asm != nil {
			smp.Flush()
			if o.Breakdown {
				fmt.Fprint(w, span.Aggregate(asm.Spans()).Table())
			}
			if o.Prof != "" {
				b, err := timeline.BuildProfile(asm, smp, "").JSON()
				if err == nil {
					err = os.WriteFile(o.Prof, b, 0o644)
				}
				if err != nil {
					return fmt.Errorf("prof: %w", err)
				}
			}
			if o.Chrome != "" {
				b, err := timeline.ChromeTrace(asm.Spans(), smp.Windows())
				if err == nil {
					err = os.WriteFile(o.Chrome, b, 0o644)
				}
				if err != nil {
					return fmt.Errorf("chrome: %w", err)
				}
			}
		}
		if digest != nil {
			fmt.Fprintf(w, "trace digest: sha256:%s over %d events (last at %v)\n",
				digest.Sum(), digest.Count(), sim.Time(digest.LastAt()))
		}
		return nil
	}
}
