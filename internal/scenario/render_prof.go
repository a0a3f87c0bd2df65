package scenario

import (
	"fmt"
	"io"
	"os"
	"strings"

	"mproxy/internal/prof"
	"mproxy/internal/trace/timeline"
)

// renderProf runs the profiled latency scenarios: a serialized PUT or
// GET ping-pong per design point with the span assembler and timeline
// sampler attached, printing the measured per-phase latency breakdown
// next to the analytic model's phase predictions with a delta column.
func renderProf(s Spec, opt options, w io.Writer) error {
	var cfgs []prof.Config
	for _, a := range s.Archs {
		for _, op := range s.Ops {
			cfgs = append(cfgs, prof.Config{
				Arch: a, Op: op, Bytes: s.Bytes, Reps: s.Reps, PeriodNs: s.PeriodNs,
				Fabric: opt.fabric, Fault: opt.plane, Tracer: opt.tracer,
			})
		}
	}
	breakdown := s.Out.Breakdown == nil || *s.Out.Breakdown
	var allRows []prof.Row
	var profiles []timeline.Profile
	for _, cfg := range cfgs {
		r, err := prof.PingPong(cfg)
		if err != nil {
			return err
		}
		rows := r.BreakdownRows()
		allRows = append(allRows, rows...)
		if breakdown {
			printProfTable(w, cfg, rows, r.Asm.Stats().Completed)
		}
		if s.Out.Prof != "" {
			profiles = append(profiles, r.Profile())
		}
		if s.Out.Chrome != "" {
			path := s.Out.Chrome
			if len(cfgs) > 1 {
				path = insertSuffix(path, fmt.Sprintf("-%s-%s", cfg.Arch, cfg.Op))
			}
			b, err := timeline.ChromeTrace(r.Asm.Spans(), r.Smp.Windows())
			if err == nil {
				err = os.WriteFile(path, b, 0o644)
			}
			if err != nil {
				return fmt.Errorf("chrome: %w", err)
			}
		}
	}
	if s.Out.Prof != "" {
		if err := writeJSON(s.Out.Prof, struct {
			Profiles []timeline.Profile `json:"profiles"`
		}{profiles}); err != nil {
			return fmt.Errorf("prof: %w", err)
		}
	}
	if s.Out.BenchJSON != "" {
		if err := writeJSON(s.Out.BenchJSON, struct {
			Benchmark string     `json:"benchmark"`
			Rows      []prof.Row `json:"rows"`
		}{"phase-breakdown", allRows}); err != nil {
			return fmt.Errorf("bench-json: %w", err)
		}
	}
	return nil
}

func printProfTable(w io.Writer, cfg prof.Config, rows []prof.Row, spans int) {
	fmt.Fprintf(w, "%s %dB on %s (%d spans, %d reps)\n", cfg.Op, cfg.Bytes, cfg.Arch, spans, cfg.Reps)
	fmt.Fprintf(w, "  %-14s %5s %13s %13s %9s\n", "phase", "n", "measured(us)", "model(us)", "delta%")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %5d %13.3f", r.Phase, r.Count, r.MeasuredUs)
		if r.Model {
			fmt.Fprintf(w, " %13.3f %+9.2f\n", r.ModelUs, r.DeltaPct)
		} else {
			fmt.Fprintf(w, " %13s %9s\n", "-", "-")
		}
	}
	fmt.Fprintln(w)
}

// insertSuffix turns "trace.json" + "-MP1-PUT" into "trace-MP1-PUT.json".
func insertSuffix(path, suffix string) string {
	if i := strings.LastIndex(path, "."); i > strings.LastIndex(path, "/") {
		return path[:i] + suffix + path[i:]
	}
	return path + suffix
}
