package am

import (
	"testing"

	"mproxy/internal/arch"
	"mproxy/internal/comm"
	"mproxy/internal/fault"
	"mproxy/internal/machine"
	"mproxy/internal/rel"
	"mproxy/internal/sim"
)

// scanReply is the wire size of a KV SCAN reply: two argument words and
// sixteen 64-byte values.
var scanReply = RecordBytes(2, 16*64)

func TestRecordClass(t *testing.T) {
	for _, tc := range []struct{ n, class int }{
		{1, 0}, {recordCap, 0}, {recordCap + 1, 1}, {256, 1}, {257, 2},
		{scanReply, 4}, {maxRecordCap, recordClasses - 1}, {maxRecordCap + 1, -1},
	} {
		if got := recordClass(tc.n); got != tc.class {
			t.Errorf("recordClass(%d) = %d, want %d", tc.n, got, tc.class)
		}
	}
}

// TestRecordPoolsPerEngine: every port on one engine shares that
// engine's record and send-frame pools; ports on two engines never do.
func TestRecordPoolsPerEngine(t *testing.T) {
	_, _, l1 := build(2, arch.MP1)
	_, _, l2 := build(2, arch.MP1)
	p, q, r := l1.Port(0), l1.Port(1), l2.Port(0)
	if p.pools != q.pools {
		t.Error("two ports on one engine have separate pools")
	}
	if p.pools == r.pools {
		t.Error("ports on two engines share a pool")
	}
}

// TestAllocPinScanRecord: a SCAN-sized record takes the 2 KiB class and
// recycles at zero allocations under an exactly-once fabric.
func TestAllocPinScanRecord(t *testing.T) {
	_, f, l := build(2, arch.MP1)
	if !f.ExactlyOnce() {
		t.Fatal("a fault-free fabric without rel is not exactly-once")
	}
	p, q := l.Port(0), l.Port(1)
	rec := p.newRecord(scanReply)
	if len(rec) != scanReply || cap(rec) != 2048 {
		t.Fatalf("SCAN record len %d cap %d, want %d and 2048", len(rec), cap(rec), scanReply)
	}
	q.freeRecord(rec) // the receiver releases into the shared engine pool
	if got := testing.AllocsPerRun(100, func() {
		q.freeRecord(p.newRecord(scanReply))
	}); got != 0 {
		t.Errorf("SCAN record new+free: %v allocs, want 0", got)
	}
	if n := len(p.pools.recs[recordClass(scanReply)]); n != 1 {
		t.Errorf("SCAN class holds %d records, want 1", n)
	}
}

// TestRecordAboveCeilingNotPooled: a record larger than the largest
// class is allocated to size and left to the collector.
func TestRecordAboveCeilingNotPooled(t *testing.T) {
	_, _, l := build(2, arch.MP1)
	p := l.Port(0)
	big := p.newRecord(maxRecordCap + 1)
	if cap(big) != maxRecordCap+1 {
		t.Fatalf("record above the ceiling has cap %d, want %d", cap(big), maxRecordCap+1)
	}
	p.freeRecord(big)
	for c := range p.pools.recs {
		if len(p.pools.recs[c]) != 0 {
			t.Fatalf("class %d pooled a record above the ceiling", c)
		}
	}
}

// TestRecordsNotRecycledWithoutExactlyOnce: with a duplicating fault
// plane or the reliable transport a delivered record may still be
// referenced, so a consumed SCAN record never returns to the pool.
func TestRecordsNotRecycledWithoutExactlyOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(cl *machine.Cluster) *comm.Fabric
	}{
		{"dup-plane", func(cl *machine.Cluster) *comm.Fabric {
			cl.SetFaultPlane(fault.NewPlane(fault.Config{Dup: 0.5}))
			return comm.New(cl)
		}},
		{"rel", func(cl *machine.Cluster) *comm.Fabric {
			return comm.NewWith(cl, comm.Options{Rel: &rel.Config{}})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			cl := machine.New(eng, machine.Config{Nodes: 2, ProcsPerNode: 1}, arch.MP1)
			f := tc.setup(cl)
			if f.ExactlyOnce() {
				t.Fatal("fabric reports exactly-once delivery")
			}
			p := New(f).Port(0)
			p.freeRecord(p.newRecord(scanReply))
			p.freeRecord(p.newRecord(RecordBytes(3, 0)))
			for c := range p.pools.recs {
				if len(p.pools.recs[c]) != 0 {
					t.Fatalf("class %d recycled a record", c)
				}
			}
		})
	}
}
