package crl

import (
	"fmt"

	"mproxy/internal/costmodel"
	"mproxy/internal/memory"
)

// Region operations (the CRL API): rgn_start_read / rgn_end_read /
// rgn_start_write / rgn_end_write / rgn_flush. Operations on a valid
// mapping are local (a few instructions); misses run the coherence
// protocol against the region's home.

// StartRead opens a read section: the caller may read the region's data
// until EndRead. It blocks until a coherent copy is local.
func (rg *Region) StartRead() {
	n := rg.node
	n.port.PollAll() // service protocol work before (possibly) blocking
	if rg.st != Invalid {
		rg.readers++
		n.hits++
		n.port.Endpoint().Compute(costmodel.IntOps(10))
		return
	}
	n.misses++
	rg.granted = false
	n.ly.protoMsgs++
	n.port.Request(rg.meta.home, n.ly.hRead, int64(rg.meta.rid), int64(n.rank))
	n.port.WaitUntil(func() bool { return rg.granted })
	rg.readers++
}

// EndRead closes a read section, performing any deferred invalidation.
func (rg *Region) EndRead() {
	n := rg.node
	if rg.readers <= 0 {
		panic(fmt.Sprintf("crl: rank %d EndRead on region %d with no open read", n.rank, rg.meta.rid))
	}
	rg.readers--
	n.port.Endpoint().Compute(costmodel.IntOps(8))
	rg.settleDeferred()
}

// StartWrite opens a write section, acquiring the exclusive copy.
func (rg *Region) StartWrite() {
	n := rg.node
	n.port.PollAll()
	if rg.st == Exclusive {
		rg.writers++
		n.hits++
		n.port.Endpoint().Compute(costmodel.IntOps(10))
		return
	}
	n.misses++
	rg.granted = false
	n.ly.protoMsgs++
	n.port.Request(rg.meta.home, n.ly.hWrite, int64(rg.meta.rid), int64(n.rank))
	n.port.WaitUntil(func() bool { return rg.granted })
	rg.writers++
}

// EndWrite closes a write section, performing any deferred recall.
func (rg *Region) EndWrite() {
	n := rg.node
	if rg.writers <= 0 {
		panic(fmt.Sprintf("crl: rank %d EndWrite on region %d with no open write", n.rank, rg.meta.rid))
	}
	rg.writers--
	n.port.Endpoint().Compute(costmodel.IntOps(8))
	rg.settleDeferred()
}

// settleDeferred performs invalidations and flushes that arrived while the
// region was in use.
func (rg *Region) settleDeferred() {
	if rg.readers > 0 || rg.writers > 0 {
		return
	}
	n := rg.node
	if rg.pendingInv {
		rg.pendingInv = false
		rg.st = Invalid
		n.ly.protoMsgs++
		n.port.Request(rg.meta.home, n.ly.hInvAck, int64(rg.meta.rid))
	}
	if rg.pendingFlush {
		rg.pendingFlush = false
		if rg.st != Invalid {
			rg.flushHome()
		}
	}
}

// Flush voluntarily writes the region home and invalidates the local copy
// (rgn_flush). A no-op unless this rank holds the current copy.
func (rg *Region) Flush() {
	if rg.readers > 0 || rg.writers > 0 {
		panic("crl: Flush inside an open read/write section")
	}
	if rg.st == Invalid || rg.meta.owner != rg.node.rank {
		return
	}
	rg.flushHome()
}

// State returns the mapping's coherence state.
func (rg *Region) State() State { return rg.st }

// Size returns the region size in bytes.
func (rg *Region) Size() int { return rg.meta.size }

// RID returns the region's identifier.
func (rg *Region) RID() RID { return rg.meta.rid }

// F64 returns a float64 view of the local copy: count elements starting at
// byte offset off. Only touch it inside a read or write section.
func (rg *Region) F64(off, count int) memory.F64 {
	return memory.Float64s(rg.copySeg(), off, count)
}

// I64 returns an int64 view of the local copy.
func (rg *Region) I64(off, count int) memory.I64 {
	return memory.Int64s(rg.copySeg(), off, count)
}

// Bytes exposes the raw local copy.
func (rg *Region) Bytes() []byte { return rg.copySeg().Data }
