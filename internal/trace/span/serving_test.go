package span_test

import (
	"testing"

	"mproxy/internal/arch"
	"mproxy/internal/trace/span"
	"mproxy/internal/workload/openloop"
)

// TestServingMultiHopAttribution runs the serving stack over a 64-node
// fat-tree with the span assembler installed as the run's tracer and
// requires clean attribution quality: requests routed hop by hop through
// topo.Net switches must neither orphan their completions nor degrade to
// fallback/approximate attribution. Before the multi-hop fix the
// assembler treated every switch-hop re-schedule as a fresh service
// launch, so the serving stream showed thousands of approximate spans.
func TestServingMultiHopAttribution(t *testing.T) {
	asm := span.NewAssembler()

	a, ok := arch.ByName("MP1")
	if !ok {
		t.Fatal("MP1 missing")
	}
	res, err := openloop.Run(openloop.Config{
		Arch: a, Nodes: 64, Clients: 1, Proxies: 1,
		Topo: "fat-tree", CommandQueueCap: 64,
		ValueBytes: 64, ScanCount: 4, Replication: 2,
		Keys: 512, Theta: 0.99,
		Requests: 400, Warmup: 50,
		LoadUs: []float64{80}, Seed: 7,
		Tracer: asm,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalIssued == 0 {
		t.Fatal("no requests issued")
	}
	st := asm.Stats()
	if st.Spans == 0 || st.Completed == 0 {
		t.Fatalf("serving traffic opened no spans: %+v", st)
	}
	if st.OrphanDone != 0 {
		t.Errorf("%d orphan completions on multi-hop serving traffic", st.OrphanDone)
	}
	if st.FallbackDone != 0 {
		t.Errorf("%d fallback completions on multi-hop serving traffic", st.FallbackDone)
	}
	if st.Approximate != 0 {
		t.Errorf("%d approximate spans on multi-hop serving traffic (of %d)", st.Approximate, st.Spans)
	}
	if st.UnattributedItems != 0 {
		t.Errorf("%d unattributed work items on multi-hop serving traffic", st.UnattributedItems)
	}
	if st.FifoDesyncs != 0 {
		t.Errorf("%d FIFO desyncs on multi-hop serving traffic", st.FifoDesyncs)
	}
	if st.LatencyMismatches != 0 {
		t.Errorf("%d latency mismatches on multi-hop serving traffic", st.LatencyMismatches)
	}
}
