package scenario

import (
	"fmt"
	"io"
	"strings"

	"mproxy/internal/workload/openloop"
)

// renderProxySweep reproduces the multi-core proxy design-point sweep:
// the open-loop KV serving workload re-run over every (scheduling
// policy, proxies-per-node) cell of the spec's grid, reporting tail
// latency plus per-proxy utilization for each cell. The static policy
// with one proxy per node is exactly the serving kind's baseline, so
// the table reads as "what does adding proxy cores or changing their
// scheduling buy at this load" — the Section 5.4 question extended from
// the paper's fixed slot-modulo binding to a scheduled resource.
func renderProxySweep(s Spec, opt options, w io.Writer) error {
	sv := *s.Serving
	topoName := sv.Topo
	if topoName == "flat" {
		topoName = "" // openloop's single-switch model
	}
	counts := make([]string, len(sv.ProxyCounts))
	for i, c := range sv.ProxyCounts {
		counts[i] = fmt.Sprintf("%d", c)
	}
	fmt.Fprintf(w, "Proxy-scheduling sweep on %s: %d nodes x %d clients\n",
		sv.Topo, s.Topology.Nodes, sv.Clients)
	fmt.Fprintf(w, "  policies %s x %s proxies/node; util is proxy busy-time / elapsed (mean and max over all proxy cores)\n",
		strings.Join(sv.Scheds, ", "), strings.Join(counts, ", "))
	fmt.Fprintf(w, "  %d-byte values, scans of %d, replication %d, %d keys (zipf %.2f), %s arrivals\n",
		sv.ValueBytes, sv.ScanCount, sv.Replication, sv.Keys, sv.Theta, sv.Arrival)
	fmt.Fprintf(w, "  %d measured + %d warmup requests per load point; latency measured from the scheduled arrival\n",
		sv.Requests, sv.Warmup)

	type cell struct {
		sched  string
		nprox  int
		kneeUs float64
		kneeP  openloop.Point
		rps    float64
	}
	for _, a := range specArchs(s) {
		theta := sv.Theta
		if theta < 0 {
			theta = 0 // spec sentinel for uniform keys
		}
		fmt.Fprintf(w, "\n%s:\n", a.Name)
		fmt.Fprintf(w, "  %-7s %7s %10s %9s %9s %9s %9s %9s\n",
			"policy", "proxies", "us/client", "p50 us", "p99 us", "p999 us", "util avg", "util max")
		var cells []cell
		for _, sched := range sv.Scheds {
			for _, nprox := range sv.ProxyCounts {
				res, err := openloop.Run(openloop.Config{
					Arch:            a,
					Nodes:           s.Topology.Nodes,
					Clients:         sv.Clients,
					Proxies:         nprox,
					ProxySched:      sched,
					Topo:            topoName,
					CommandQueueCap: s.CommandQueueCap,
					ValueBytes:      sv.ValueBytes,
					ScanCount:       sv.ScanCount,
					Replication:     sv.Replication,
					Keys:            sv.Keys,
					Theta:           theta,
					Arrival:         sv.Arrival,
					Requests:        sv.Requests,
					Warmup:          sv.Warmup,
					LoadUs:          sv.LoadUs,
					Seed:            s.Fault.Seed,
					Tracer:          opt.tracer,
				})
				if err != nil {
					return fmt.Errorf("scenario: proxy-sweep %s/%s x%d: %w", a.Name, sched, nprox, err)
				}
				c := cell{sched: sched, nprox: nprox, kneeUs: res.KneeLoadUs, rps: res.SaturationRPS}
				for _, pt := range res.Points {
					fmt.Fprintf(w, "  %-7s %7d %10.1f %9.1f %9.1f %9.1f %8.1f%% %8.1f%%\n",
						sched, nprox, pt.LoadUs,
						pt.Latency.P50Us, pt.Latency.P99Us, pt.Latency.P999Us,
						100*pt.ProxyUtilMean, 100*pt.ProxyUtilMax)
					if pt.LoadUs == res.KneeLoadUs {
						c.kneeP = pt
					}
				}
				cells = append(cells, c)
			}
		}
		fmt.Fprintf(w, "  saturation knee (last load with p99 within 3x of the lightest):\n")
		for _, c := range cells {
			fmt.Fprintf(w, "    %-7s x%d: %8.0f req/s at %g us/client (p99 %.1f us, proxy util max %.1f%%)\n",
				c.sched, c.nprox, c.rps, c.kneeUs, c.kneeP.Latency.P99Us, 100*c.kneeP.ProxyUtilMax)
		}
	}
	return nil
}
