package comm

import (
	"fmt"
	"testing"

	"mproxy/internal/arch"
	"mproxy/internal/machine"
	"mproxy/internal/machine/topo"
	"mproxy/internal/sim"
	"mproxy/internal/trace"
)

// TestComponentNames checks every component name of a 16-node serving
// stack (two proxies and three processors per node, on a fat-tree)
// against the fmt formats the names are defined by, and the adapters'
// names on a custom-hardware cluster. The constructors build names
// without fmt (package names), so this pins them to the bytes every
// trace digest, smoke golden and forensics file records.
func TestComponentNames(t *testing.T) {
	a, _ := arch.ByName("MP1")
	const nodes, ppn, proxies = 16, 3, 2
	eng := sim.NewEngine()
	rec := &trace.Recorder{}
	eng.SetTracer(rec)
	cl := machine.New(eng, machine.Config{Nodes: nodes, ProcsPerNode: ppn, ProxiesPerNode: proxies}, a)
	net := topo.NewNet(cl, topo.FatTree(nodes))
	cl.SetInterconnect(net)
	f := NewWith(cl, Options{CommandQueueCap: 64})

	check := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s is named %q, want %q", what, got, want)
		}
	}
	for n, nd := range cl.Nodes {
		check("output link", nd.OutLink.Name(), fmt.Sprintf("node%d.out", n))
		check("DMA engine", nd.DMA.Name(), fmt.Sprintf("node%d.dma", n))
		for k, ag := range nd.Agents {
			check("proxy", ag.Name, fmt.Sprintf("node%d.proxy%d", n, k))
		}
	}
	// Each agent's task spawns under the agent's name.
	if err := eng.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	eng.FlushTrace()
	var agents, tasks []string
	for _, nd := range cl.Nodes {
		for _, ag := range nd.Agents {
			agents = append(agents, ag.Name)
		}
	}
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KSpawn {
			tasks = append(tasks, ev.Comp)
		}
	}
	if fmt.Sprint(tasks) != fmt.Sprint(agents) {
		t.Errorf("agent tasks spawned as %v, want %v", tasks, agents)
	}
	g := topo.FatTree(nodes)
	ports := make([]int, g.Switches)
	for _, up := range g.Up {
		ports[int(up)-nodes]++
	}
	for _, e := range g.Edges {
		ports[int(e.A)-nodes]++
		ports[int(e.B)-nodes]++
	}
	var wantPorts, gotPorts []string
	for s, n := range ports {
		for pi := 0; pi < n; pi++ {
			wantPorts = append(wantPorts, fmt.Sprintf("fat-tree.sw%d.p%d", s, pi))
		}
	}
	net.EachLink(func(_ topo.Tier, l *machine.Link) { gotPorts = append(gotPorts, l.Name()) })
	if fmt.Sprint(gotPorts) != fmt.Sprint(wantPorts) {
		t.Errorf("switch ports are named %v, want %v", gotPorts, wantPorts)
	}
	for r, ep := range f.Endpoints() {
		check("command queue", ep.cmdqComp, fmt.Sprintf("rank%d.cmdq", r))
	}

	// Work queues and scanners name themselves only in the trace stream:
	// one enqueue on every agent and one scan pass on every scanner.
	rec.Reset()
	for _, nd := range cl.Nodes {
		for k, ag := range nd.Agents {
			ag.Submit(workScan, nil)
			f.scanners[nd.ID][k].Next()
		}
	}
	eng.FlushTrace()
	var want []string
	for n := 0; n < nodes; n++ {
		for k := 0; k < proxies; k++ {
			want = append(want, fmt.Sprintf("node%d.proxy%d.q", n, k), fmt.Sprintf("node%d.proxy%d.scan", n, k))
		}
	}
	var got []string
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KEnqueue || ev.Kind == trace.KScan {
			got = append(got, ev.Comp)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("work queues and scanners traced as %v, want %v", got, want)
	}

	hw, _ := arch.ByName("HW1")
	hcl := machine.New(sim.NewEngine(), machine.Config{Nodes: 3, ProcsPerNode: 1}, hw)
	for n, nd := range hcl.Nodes {
		check("adapter", nd.Agent.Name, fmt.Sprintf("node%d.adapter", n))
	}
}
