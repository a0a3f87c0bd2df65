package main

import (
	"fmt"
	"time"

	"mproxy/internal/am"
	"mproxy/internal/arch"
	"mproxy/internal/coll"
	"mproxy/internal/comm"
	"mproxy/internal/crl"
	"mproxy/internal/kv"
	"mproxy/internal/machine"
	"mproxy/internal/machine/topo"
	"mproxy/internal/mpi"
	"mproxy/internal/scenario"
	"mproxy/internal/sim"
	"mproxy/internal/splitc"
	"mproxy/internal/workload"
)

// setupLayers names the constructors a workload's set-up is split into,
// in the order they run.
var setupLayers = []string{"sim", "machine", "topo", "comm", "am", "kv", "coll", "crl", "splitc", "mpi"}

// minSetupTime is how long one set-up rep keeps rebuilding the clusters:
// a 1024-node serving cluster builds in tens of milliseconds, too short to
// time once.
const minSetupTime = 300 * time.Millisecond

// ctorTimer times each constructor call of a build, summing per layer and,
// when tracing, recording one root span per call.
type ctorTimer struct {
	sum map[string]time.Duration
	rec *spanRecorder
}

func (t *ctorTimer) do(layer string, f func()) {
	start := time.Now()
	f()
	end := time.Now()
	t.sum[layer] += end.Sub(start)
	t.rec.add(layer, start, end)
}

// measureSetup rebuilds every simulated cluster the workload's run builds
// until minSetupTime has passed and returns the seconds one build costs,
// per layer and in "total".
func measureSetup(s scenario.Spec, rec *spanRecorder) (map[string]float64, error) {
	s = s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	t := &ctorTimer{sum: map[string]time.Duration{}, rec: rec}
	start := time.Now()
	passes := 0
	for passes == 0 || time.Since(start) < minSetupTime {
		if err := buildClusters(s, t); err != nil {
			return nil, err
		}
		passes++
		t.rec = nil // spans for the first pass only; later passes repeat it
	}
	out := map[string]float64{}
	var total time.Duration
	for _, layer := range setupLayers {
		out[layer] = t.sum[layer].Seconds() / float64(passes)
		total += t.sum[layer]
	}
	out["total"] = total.Seconds() / float64(passes)
	return out, nil
}

// buildClusters calls the public constructors scenario.Run calls for a
// normalized spec, with the same arguments, and drops the result.
func buildClusters(s scenario.Spec, t *ctorTimer) error {
	if s.Fault.Spec != "" || s.Topology.SimShards > 1 {
		return fmt.Errorf("set-up mirror: %s: fault injection and sharded runs are not mirrored", s.Name)
	}
	switch s.Kind {
	case scenario.KindServing:
		return buildServing(s, t)
	case scenario.KindAppsFigure8:
		return buildFigure8(s, t)
	}
	return fmt.Errorf("set-up mirror: %s: kind %q is not mirrored", s.Name, s.Kind)
}

// buildServing mirrors openloop.runPoint, which builds a fresh cluster for
// every load point of every design point.
func buildServing(s scenario.Spec, t *ctorTimer) error {
	sv := *s.Serving
	ppn := 1 + sv.Clients
	servers := make([]int, s.Topology.Nodes)
	for n := range servers {
		servers[n] = n * ppn
	}
	for _, name := range s.Archs {
		a, _ := arch.ByName(name)
		for range sv.LoadUs {
			var eng *sim.Engine
			t.do("sim", func() { eng = sim.NewEngine() })
			var cl *machine.Cluster
			t.do("machine", func() {
				cl = machine.New(eng, machine.Config{
					Nodes:          s.Topology.Nodes,
					ProcsPerNode:   ppn,
					ProxiesPerNode: s.Topology.Proxies,
					ProxySched:     s.Topology.ProxySched,
				}, a)
			})
			if sv.Topo != "flat" {
				var err error
				t.do("topo", func() {
					var g topo.Graph
					if g, err = topo.ByName(sv.Topo, s.Topology.Nodes); err == nil {
						cl.SetInterconnect(topo.NewNet(cl, g))
					}
				})
				if err != nil {
					return err
				}
			}
			var f *comm.Fabric
			t.do("comm", func() { f = comm.NewWith(cl, comm.Options{CommandQueueCap: s.CommandQueueCap}) })
			var l *am.Layer
			t.do("am", func() { l = am.New(f) })
			t.do("kv", func() {
				kv.New(l, kv.Config{
					Servers:     servers,
					ValueBytes:  sv.ValueBytes,
					ScanCount:   sv.ScanCount,
					Replication: sv.Replication,
				})
			})
		}
	}
	return nil
}

// buildFigure8 mirrors workload.SpeedupsJOpts: per application, the HW1
// one-processor reference cell and then every (design point, procs) cell,
// each an apps.NewEnvWith stack.
func buildFigure8(s scenario.Spec, t *ctorTimer) error {
	heap := s.HeapBytes
	if heap == 0 {
		heap = workload.DefaultHeapBytes
	}
	opt := comm.Options{CommandQueueCap: s.CommandQueueCap, ProxySched: s.Topology.ProxySched}
	ref, _ := arch.ByName("HW1")
	for range s.Apps {
		buildEnv(ref, 1, heap, opt, t)
		for _, name := range s.Archs {
			a, _ := arch.ByName(name)
			for _, p := range s.Procs {
				buildEnv(a, p, heap, opt, t)
			}
		}
	}
	return nil
}

// buildEnv mirrors the body of apps.NewEnvWith for one cell.
func buildEnv(a arch.Params, procs, heap int, opt comm.Options, t *ctorTimer) {
	var eng *sim.Engine
	t.do("sim", func() { eng = sim.NewEngine() })
	var cl *machine.Cluster
	t.do("machine", func() { cl = machine.New(eng, machine.Config{Nodes: procs, ProcsPerNode: 1}, a) })
	var f *comm.Fabric
	t.do("comm", func() { f = comm.NewWith(cl, opt) })
	var l *am.Layer
	t.do("am", func() { l = am.New(f) })
	var g *coll.Group
	t.do("coll", func() { g = coll.NewGroup(l) })
	t.do("crl", func() { crl.New(l) })
	t.do("splitc", func() { splitc.New(l, g, heap) })
	t.do("mpi", func() { mpi.New(l, g) })
}
