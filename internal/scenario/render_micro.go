package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"mproxy/internal/arch"
	"mproxy/internal/micro"
)

// published holds Table 4's published measurements, printed next to the
// simulated values.
var published = map[string][5]float64{
	"HW0": {10.0, 9.5, 1.0, 28.2, 25.0},
	"HW1": {10.6, 9.6, 1.5, 30.2, 150},
	"MP0": {30.0, 28.0, 3.5, 63.5, 22.3},
	"MP1": {26.6, 24.7, 3.0, 58.0, 86.7},
	"MP2": {16.9, 16.4, 0.75, 41.1, 86.7},
	"SW1": {36.1, 34.1, 15.0, 107.8, 86.7},
}

// specArchs resolves the (validated) spec's design-point names.
func specArchs(s Spec) []arch.Params {
	out := make([]arch.Params, 0, len(s.Archs))
	for _, name := range s.Archs {
		a, _ := arch.ByName(name)
		out = append(out, a)
	}
	return out
}

func (o options) micro() micro.Options {
	return micro.Options{Fabric: o.fabric, Fault: o.plane, Tracer: o.tracer}
}

// writeJSON emits machine-readable benchmark results so sweeps can be
// archived and diffed across revisions without scraping the tables.
func writeJSON(path string, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// renderTable3 prints the design-point simulation parameters.
func renderTable3(s Spec, w io.Writer) error {
	archs := specArchs(s)
	fmt.Fprintln(w, "Table 3: simulation parameters for the design points")
	fmt.Fprintf(w, "%-34s", "Parameter")
	for _, a := range archs {
		fmt.Fprintf(w, " %8s", a.Name)
	}
	fmt.Fprintln(w)
	row := func(name string, f func(a arch.Params) string) {
		fmt.Fprintf(w, "%-34s", name)
		for _, a := range archs {
			fmt.Fprintf(w, " %8s", f(a))
		}
		fmt.Fprintln(w)
	}
	row("Cache Miss Latency (us)", func(a arch.Params) string { return fmt.Sprintf("%.2f", a.CacheMiss.Micros()) })
	row("Agent-Proc Miss Latency (us)", func(a arch.Params) string { return fmt.Sprintf("%.2f", a.AgentMiss.Micros()) })
	row("Agent Speed (x75 MHz)", func(a arch.Params) string { return fmt.Sprintf("%.0f", a.Speed) })
	row("Polling Delay P (us)", func(a arch.Params) string {
		if a.Kind != arch.Proxy {
			return "n/a"
		}
		return fmt.Sprintf("%.2f", a.PollDelay().Micros())
	})
	row("Adapter Overhead (us)", func(a arch.Params) string {
		if a.Kind != arch.CustomHW {
			return "n/a"
		}
		return fmt.Sprintf("%.2f", a.AdapterOvh.Micros())
	})
	row("Syscall / Interrupt (us)", func(a arch.Params) string {
		if a.Kind != arch.Syscall {
			return "n/a"
		}
		return fmt.Sprintf("%.1f/%.1f", a.SyscallOvh.Micros(), a.InterruptOvh.Micros())
	})
	row("DMA Bandwidth (MB/s)", func(a arch.Params) string { return fmt.Sprintf("%.0f", a.DMABW) })
	row("Network Latency (us)", func(a arch.Params) string { return fmt.Sprintf("%.2f", a.NetLatency.Micros()) })
	row("Network Bandwidth (MB/s)", func(a arch.Params) string { return fmt.Sprintf("%.0f", a.NetBW) })
	row("Page Pinning (us/page)", func(a arch.Params) string {
		if a.Prepinned {
			return "pre-pin"
		}
		return fmt.Sprintf("%.0f", a.PinPerPage.Micros())
	})
	return nil
}

type table4JSONRow struct {
	Arch       string  `json:"arch"`
	PutLatency float64 `json:"put_latency_us"`
	GetLatency float64 `json:"get_latency_us"`
	PutSyncOvh float64 `json:"put_sync_overhead_us"`
	AMLatency  float64 `json:"am_latency_us"`
	PeakBW     float64 `json:"peak_bw_mbs"`
}

func table4JSON(rows []micro.Table4Row) any {
	out := struct {
		Benchmark string          `json:"benchmark"`
		Rows      []table4JSONRow `json:"rows"`
	}{Benchmark: "table4"}
	for _, r := range rows {
		out.Rows = append(out.Rows, table4JSONRow{
			Arch: r.Arch, PutLatency: r.PutLatency, GetLatency: r.GetLatency,
			PutSyncOvh: r.PutSyncOvh, AMLatency: r.AMLatency, PeakBW: r.PeakBW,
		})
	}
	return out
}

// renderTable4 runs the micro-benchmarks and prints the Table 4
// simulated-vs-published comparison.
func renderTable4(s Spec, opt options, w io.Writer) error {
	archs := specArchs(s)
	rows := make([]micro.Table4Row, len(archs))
	for i, a := range archs {
		rows[i] = micro.Table4Opts(a, opt.micro())
	}
	fmt.Fprintln(w, "Table 4: micro-benchmark measurements (simulated / published)")
	fmt.Fprintf(w, "%-16s", "Measurement")
	for _, r := range rows {
		fmt.Fprintf(w, " %15s", r.Arch)
	}
	fmt.Fprintln(w)
	print := func(name string, idx int, get func(micro.Table4Row) float64) {
		fmt.Fprintf(w, "%-16s", name)
		for i := range rows {
			pub := published[rows[i].Arch][idx]
			fmt.Fprintf(w, " %7.1f/%-7.1f", get(rows[i]), pub)
		}
		fmt.Fprintln(w)
	}
	print("PUT latency us", 0, func(r micro.Table4Row) float64 { return r.PutLatency })
	print("GET latency us", 1, func(r micro.Table4Row) float64 { return r.GetLatency })
	print("PUT+sync ovh us", 2, func(r micro.Table4Row) float64 { return r.PutSyncOvh })
	print("AM latency us", 3, func(r micro.Table4Row) float64 { return r.AMLatency })
	print("Peak BW MB/s", 4, func(r micro.Table4Row) float64 { return r.PeakBW })
	if s.Out.BenchJSON != "" {
		if err := writeJSON(s.Out.BenchJSON, table4JSON(rows)); err != nil {
			return fmt.Errorf("bench-json: %w", err)
		}
	}
	return nil
}

// sweepData holds one Figure 7 sweep, computed once and shared by the
// table, CSV and JSON emitters.
type sweepData struct {
	sizes []int
	put   [][]micro.Point // indexed [arch][size]
	store [][]micro.Point
}

func runSweep(archs []arch.Params, sizes []int, opt micro.Options) sweepData {
	sd := sweepData{
		sizes: sizes,
		put:   make([][]micro.Point, len(archs)),
		store: make([][]micro.Point, len(archs)),
	}
	for i, a := range archs {
		sd.put[i] = micro.PingPongPutOpts(a, sd.sizes, opt)
		sd.store[i] = micro.PingPongStoreOpts(a, sd.sizes, opt)
	}
	return sd
}

type sweepJSONPoint struct {
	Benchmark string  `json:"benchmark"`
	Arch      string  `json:"arch"`
	Bytes     int     `json:"bytes"`
	LatencyUs float64 `json:"latency_us"`
	BWMBs     float64 `json:"bandwidth_mbs"`
}

func sweepJSON(archs []arch.Params, sd sweepData) any {
	var pts []sweepJSONPoint
	for i, a := range archs {
		for _, pt := range sd.put[i] {
			pts = append(pts, sweepJSONPoint{"put", a.Name, pt.Bytes, pt.Latency, pt.BW})
		}
		for _, pt := range sd.store[i] {
			pts = append(pts, sweepJSONPoint{"amstore", a.Name, pt.Bytes, pt.Latency, pt.BW})
		}
	}
	return struct {
		Benchmark string           `json:"benchmark"`
		Points    []sweepJSONPoint `json:"points"`
	}{"figure7", pts}
}

// renderFigure7 runs the ping-pong sweeps and prints the Figure 7
// latency/bandwidth tables (or CSV).
func renderFigure7(s Spec, opt options, w io.Writer) error {
	archs := specArchs(s)
	sd := runSweep(archs, s.Sizes, opt.micro())
	if s.Out.Format == "csv" {
		fmt.Fprintln(w, "benchmark,arch,bytes,latency_us,bandwidth_mbs")
		for i, a := range archs {
			for _, pt := range sd.put[i] {
				fmt.Fprintf(w, "put,%s,%d,%.3f,%.3f\n", a.Name, pt.Bytes, pt.Latency, pt.BW)
			}
			for _, pt := range sd.store[i] {
				fmt.Fprintf(w, "amstore,%s,%d,%.3f,%.3f\n", a.Name, pt.Bytes, pt.Latency, pt.BW)
			}
		}
	} else {
		half := func(title string, curves [][]micro.Point) {
			fmt.Fprintln(w, title)
			fmt.Fprintf(w, "%8s", "bytes")
			for _, a := range archs {
				fmt.Fprintf(w, " %9s-lat %9s-bw", a.Name, a.Name)
			}
			fmt.Fprintln(w)
			for si, n := range sd.sizes {
				fmt.Fprintf(w, "%8d", n)
				for i := range archs {
					fmt.Fprintf(w, " %13.1f %12.1f", curves[i][si].Latency, curves[i][si].BW)
				}
				fmt.Fprintln(w)
			}
		}
		half("Figure 7: PUT ping-pong one-way latency (us) and stream bandwidth (MB/s)", sd.put)
		fmt.Fprintln(w)
		half("Figure 7: AM bulk-store ping-pong one-way latency (us) and bandwidth (MB/s)", sd.store)
	}
	if s.Out.BenchJSON != "" {
		if err := writeJSON(s.Out.BenchJSON, sweepJSON(archs, sd)); err != nil {
			return fmt.Errorf("bench-json: %w", err)
		}
	}
	return nil
}
