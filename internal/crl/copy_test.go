package crl

import (
	"runtime"
	"slices"
	"testing"

	"mproxy/internal/arch"
	"mproxy/internal/memory"
)

// segments counts the registry's segments.
func segments(reg *memory.Registry) int {
	n := 0
	for id := memory.ASID(1); ; id++ {
		if _, ok := reg.Segment(id); !ok {
			return n
		}
		n++
	}
}

// TestMapCreatesNoCopy maps every region on a non-home rank and checks
// that no copy segment exists until one is used, and that mapping costs
// one small record per region rather than a region-sized copy.
func TestMapCreatesNoCopy(t *testing.T) {
	const regions, size = 64, 4096
	var ly *Layer
	rids := make([]RID, regions)
	world(t, 2, arch.MP1,
		func(l *Layer) {
			ly = l
			for i := range rids {
				rids[i] = l.Create(0, size)
			}
		},
		func(nd *Node) {
			if nd.Rank() != 1 {
				return
			}
			before := segments(ly.registry())
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for _, rid := range rids {
				nd.Map(rid)
			}
			runtime.ReadMemStats(&m1)
			if got := segments(ly.registry()); got != before {
				t.Errorf("mapping %d regions created %d segments, want 0", regions, got-before)
			}
			// The bounds leave room for what the other rank allocates
			// while Map's compute charge holds this one.
			if b := m1.TotalAlloc - m0.TotalAlloc; b >= regions*size/16 {
				t.Errorf("mapping %d regions allocated %d bytes; one copy is %d", regions, b, size)
			}
			if n := m1.Mallocs - m0.Mallocs; n >= 2*regions {
				t.Errorf("mapping %d regions made %d allocations, want fewer than 2 each", regions, n)
			}
			rg := nd.Map(rids[0])
			rg.StartRead()
			rg.EndRead()
			if got := segments(ly.registry()); got != before+1 {
				t.Errorf("one read created %d segments, want 1", got-before)
			}
		})
}

// TestFirstReadFetchesHomeBytes reads a copy that was never fetched.
func TestFirstReadFetchesHomeBytes(t *testing.T) {
	var rid RID
	world(t, 2, arch.MP1,
		func(ly *Layer) {
			rid = ly.Create(0, 64)
			memory.Int64s(ly.metas[rid].homeBuf, 0, 8).Set(5, 1234)
		},
		func(nd *Node) {
			if nd.Rank() != 1 {
				return
			}
			rg := nd.Map(rid)
			if rg.buf != nil {
				t.Fatal("Map created the copy")
			}
			rg.StartRead()
			if got := rg.I64(0, 8).Get(5); got != 1234 {
				t.Errorf("first read = %d, want the home's 1234", got)
			}
			rg.EndRead()
		})
}

// TestWriteFirstFetchesData opens a write on a copy that was never read:
// the grant must carry the home's bytes, and the flushed write lands home.
func TestWriteFirstFetchesData(t *testing.T) {
	var ly *Layer
	var rid RID
	world(t, 2, arch.SW1,
		func(l *Layer) {
			ly = l
			rid = l.Create(0, 64)
			memory.Int64s(l.metas[rid].homeBuf, 0, 8).Set(7, 41)
		},
		func(nd *Node) {
			if nd.Rank() != 1 {
				return
			}
			rg := nd.Map(rid)
			rg.StartWrite()
			v := rg.I64(0, 8)
			if got := v.Get(7); got != 41 {
				t.Errorf("write-first copy holds %d, want the home's 41", got)
			}
			v.Set(7, v.Get(7)+1)
			rg.EndWrite()
			rg.Flush()
		})
	if got := memory.Int64s(ly.metas[rid].homeBuf, 0, 8).Get(7); got != 42 {
		t.Errorf("home holds %d after the flush, want 42", got)
	}
}

// TestHomeMappingAliasesHomeBuffer checks that the home's mapping is the
// home buffer itself and that re-mapping returns the same record.
func TestHomeMappingAliasesHomeBuffer(t *testing.T) {
	var ly *Layer
	var rid RID
	world(t, 2, arch.MP1,
		func(l *Layer) { ly = l; rid = l.Create(1, 32) },
		func(nd *Node) {
			before := segments(ly.registry())
			rg := nd.Map(rid)
			if again := nd.Map(rid); again != rg {
				t.Errorf("rank %d: re-mapping returned a new record", nd.Rank())
			}
			if got := segments(ly.registry()); got != before {
				t.Errorf("rank %d: mapping created %d segments", nd.Rank(), got-before)
			}
			if nd.Rank() != 1 {
				return
			}
			if rg.buf != ly.metas[rid].homeBuf || &rg.Bytes()[0] != &ly.metas[rid].homeBuf.Data[0] {
				t.Error("the home's mapping does not alias the home buffer")
			}
		})
}

func TestRankSetAscending(t *testing.T) {
	var s rankSet
	in := []int{70, 3, 130, 0, 63, 64, 3, 70, 17}
	for _, r := range in {
		s.add(r)
	}
	want := []int{0, 3, 17, 63, 64, 70, 130}
	if got := slices.Collect(s.all()); !slices.Equal(got, want) {
		t.Fatalf("members %v, want %v", got, want)
	}
	if s.len() != len(want) {
		t.Errorf("len = %d, want %d", s.len(), len(want))
	}
	for _, r := range []int{0, 63, 64, 130} {
		if !s.has(r) {
			t.Errorf("missing %d", r)
		}
	}
	for _, r := range []int{1, 62, 65, 129} {
		if s.has(r) {
			t.Errorf("spurious %d", r)
		}
	}
	s.reset()
	if s.len() != 0 || len(slices.Collect(s.all())) != 0 || s.has(3) || s.has(70) {
		t.Error("reset left members behind")
	}
}
