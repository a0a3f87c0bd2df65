package main

// metricDef describes one metric as BENCHMARK.json names it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the host costs a user of the simulator pays per workload
// run, each with the share of the parent's median by which it may worsen.
// The result line carries their medians over a run's reps. The two times
// take 25%, not 10%: on the shared 2-core development host the medians of
// ten consecutive runs spread by up to 18% (see the README's noise study).
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.10},
}

// perLayer are the single-layer metrics a traced run reports: each
// profile layer's CPU self time, the profiled and counted runs' overhead,
// the exact counts, numbers derived from them and from the timed
// children, and each constructor's share of set-up.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range profileLayers {
		out = append(out, metricDef{Name: l + ".self_s", Unit: "s", Better: "lower"})
	}
	out = append(out, []metricDef{
		{Name: "profile.overhead_frac", Unit: "fraction", Better: "lower"},
		{Name: "sim.events", Unit: "count", Better: "lower"},
		{Name: "sim.parks", Unit: "count", Better: "lower"},
		{Name: "comm.agent_items", Unit: "count", Better: "lower"},
		{Name: "comm.ops", Unit: "count", Better: "lower"},
		{Name: "proxy.scan_passes", Unit: "count", Better: "lower"},
		{Name: "proxy.scan_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "proxy.probes_per_pass", Unit: "count", Better: "lower"},
		{Name: "queue.ops", Unit: "count", Better: "lower"},
		{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "openloop.us_per_req", Unit: "us", Better: "lower"},
		{Name: "alloc.objects_per_event", Unit: "count", Better: "lower"},
		{Name: "alloc.bytes_per_event", Unit: "B", Better: "lower"},
		{Name: "gc.cycles", Unit: "count", Better: "lower"},
		{Name: "gc.pause_s", Unit: "s", Better: "lower"},
		{Name: "proc.cpu_s", Unit: "s", Better: "lower"},
	}...)
	for _, l := range setupLayers {
		out = append(out, metricDef{Name: "setup." + l + "_s", Unit: "s", Better: "lower"})
	}
	return out
}()

// endToEndSamples returns each end-to-end metric's samples over the
// workload's successful reps.
func (w *wlRun) endToEndSamples() map[string][]float64 {
	m := map[string][]float64{}
	for _, r := range w.timed {
		m["wall_s"] = append(m["wall_s"], r.WallS)
		m["peak_rss_mb"] = append(m["peak_rss_mb"], float64(r.MaxRSSKB)/1024)
	}
	for _, r := range w.setups {
		m["setup_s"] = append(m["setup_s"], r.Setup["total"])
	}
	return m
}

// perLayerValues derives every per-layer metric from the timed, set-up,
// profiled and counted children. A layer the workload never enters reads 0.
func (w *wlRun) perLayerValues() map[string]float64 {
	v := map[string]float64{}
	timed := func(f func(childResult) float64) float64 {
		xs := make([]float64, len(w.timed))
		for i, r := range w.timed {
			xs[i] = f(r)
		}
		return medianOf(xs)
	}
	wall := timed(func(r childResult) float64 { return r.WallS })
	if p := w.profile; p != nil {
		// The profile gives each layer's share of the samples; the child's
		// measured CPU time turns the shares into seconds.
		for _, l := range profileLayers {
			v[l+".self_s"] = p.Layers[l] * p.CPUS
		}
		v["profile.overhead_frac"] = p.WallS/wall - 1
	}
	if c := w.count; c != nil {
		for _, k := range []string{"sim.events", "sim.parks", "comm.agent_items", "comm.ops", "proxy.scan_passes", "queue.ops"} {
			v[k] = float64(c.Counts[k])
		}
		if passes := float64(c.Counts["proxy.scan_passes"]); passes > 0 {
			v["proxy.scan_hit_ratio"] = float64(c.Counts["proxy.scan_found"]) / passes
			v["proxy.probes_per_pass"] = float64(c.Counts["proxy.scan_probes"]) / passes
		}
		if ev := float64(c.Counts["sim.events"]); ev > 0 {
			v["sim.ns_per_event"] = wall * 1e9 / ev
			v["alloc.objects_per_event"] = timed(func(r childResult) float64 { return float64(r.Mallocs) }) / ev
			v["alloc.bytes_per_event"] = timed(func(r childResult) float64 { return float64(r.AllocBytes) }) / ev
		}
	}
	if sv := w.spec.Serving; sv != nil {
		reqs := float64((sv.Requests + sv.Warmup) * len(sv.LoadUs) * len(w.spec.Archs))
		v["openloop.us_per_req"] = wall * 1e6 / reqs
	}
	v["gc.cycles"] = timed(func(r childResult) float64 { return float64(r.GCCycles) })
	v["gc.pause_s"] = timed(func(r childResult) float64 { return r.GCPauseS })
	v["proc.cpu_s"] = timed(func(r childResult) float64 { return r.CPUS })
	for _, l := range setupLayers {
		xs := make([]float64, len(w.setups))
		for i, r := range w.setups {
			xs[i] = r.Setup[l]
		}
		v["setup."+l+"_s"] = medianOf(xs)
	}
	for _, d := range perLayer {
		if _, ok := v[d.Name]; !ok {
			v[d.Name] = 0
		}
	}
	return v
}
