// Package cli holds the flag plumbing shared by the mproxy subcommands:
// one registration point for the observability and fault-injection
// flags that every experiment accepts, mapping them onto the
// corresponding scenario.Spec fields. The legacy per-binary flags
// (-trace, -metrics, -prof, -chrome, -breakdown, -fault, -seed, -rel)
// keep working unchanged — they are aliases for Spec.Obs and Spec.Fault;
// nothing is installed from here, scenario.Run does all the wiring.
package cli

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"mproxy/internal/scenario"
)

// Apply copies parsed flag values onto a spec. Each Add*Flags call
// returns one.
type Apply func(*scenario.Spec)

// AddObsFlags registers the observability flags on fs. Call the
// returned Apply after fs.Parse to fill spec.Obs.
func AddObsFlags(fs *flag.FlagSet) Apply {
	trace := fs.Bool("trace", false,
		"trace all simulation events; print the stream digest and event count at exit")
	metrics := fs.String("metrics", "",
		`collect per-component counters/histograms and print them at exit: "text" or "json"`)
	prof := fs.String("prof", "",
		"assemble message-lifecycle spans and utilization timelines; write the profile JSON to this file")
	chrome := fs.String("chrome", "",
		"write the assembled spans and timelines as Chrome trace-event JSON to this file")
	breakdown := fs.Bool("breakdown", false,
		"assemble message-lifecycle spans and print the per-flow phase-latency breakdown at exit")
	return func(s *scenario.Spec) {
		s.Obs = scenario.ObsSpec{
			Trace: *trace, Metrics: *metrics, Prof: *prof,
			Chrome: *chrome, Breakdown: *breakdown,
		}
	}
}

// AddFaultFlags registers -fault, -seed and -rel on fs. Call the
// returned Apply after fs.Parse to fill spec.Fault.
func AddFaultFlags(fs *flag.FlagSet) Apply {
	spec := fs.String("fault", "",
		`fault-injection spec, e.g. "drop=1e-3,corrupt=1e-4,down=0@1ms-2ms" (see internal/fault.Parse)`)
	seed := fs.Uint64("seed", 1,
		"fault plane PRNG seed; schedules are pure functions of (seed, spec)")
	rel := fs.Bool("rel", true,
		"run inter-node traffic over the reliable transport when faults are active")
	return func(s *scenario.Spec) {
		r := *rel
		s.Fault = scenario.FaultSpec{Spec: *spec, Seed: *seed, Rel: &r}
	}
}

// SplitList splits a comma-separated flag value, trimming blanks.
func SplitList(cs string) []string {
	var out []string
	for _, part := range strings.Split(cs, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// ParseInts parses a comma-separated integer list.
func ParseInts(cs string) ([]int, error) {
	var out []int
	for _, s := range SplitList(cs) {
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", s)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseFloats parses a comma-separated float list.
func ParseFloats(cs string) ([]float64, error) {
	var out []float64
	for _, s := range SplitList(cs) {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", s)
		}
		out = append(out, v)
	}
	return out, nil
}
