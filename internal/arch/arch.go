// Package arch defines the communication-architecture design points compared
// in the paper (Table 3): custom hardware (HW0, HW1), message proxies (MP0,
// MP1, MP2) and system-call based communication (SW1), plus the machine
// primitives each simulation model is parameterized by.
//
// The published Table 3 lists cache-miss latency, compute-processor overhead,
// message-proxy overhead, hardware-adapter overhead, DMA bandwidth, network
// latency and network bandwidth per design point. Where a value is not
// legible in the archival scan, it is reconstructed so that the simulated
// micro-benchmarks reproduce the published Table 4; every reconstructed
// value is noted below and validated by tests against Table 4.
package arch

import (
	"fmt"

	"mproxy/internal/sim"
)

// Kind selects the protection mechanism of a design point.
type Kind int

const (
	// CustomHW models protection in network-adapter hardware
	// (SHRIMP / Memory Channel style virtual-memory-mapped communication).
	CustomHW Kind = iota
	// Proxy models a message proxy: a dedicated SMP processor polling
	// per-user shared-memory command queues and the network input FIFO.
	Proxy
	// Syscall models OS-mediated communication: system calls on the send
	// side, interrupts on the receive side, protocol run on compute
	// processors.
	Syscall
)

func (k Kind) String() string {
	switch k {
	case CustomHW:
		return "custom-hardware"
	case Proxy:
		return "message-proxy"
	case Syscall:
		return "system-call"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Params parameterizes one design point. Latency primitives follow the
// paper's Section 4 notation: C (cache miss), U (uncached access), V
// (vm_att/vm_det), S (processor speed as a multiple of 75 MHz), P (polling
// delay), L (network latency).
type Params struct {
	Name string
	Kind Kind

	// CacheMiss is C: the latency of a cache miss within the SMP.
	CacheMiss sim.Time
	// AgentMiss is the miss latency for cache lines shared between the
	// communication agent and a compute processor (command-queue entries,
	// synchronization flags, user data buffers). Equal to CacheMiss except
	// under MP2's direct cache-update primitive, which reduces it to
	// 0.25 us (Section 5.1).
	AgentMiss sim.Time
	// Uncached is U: an uncached (programmed-I/O) access to the adapter.
	Uncached sim.Time
	// VMAtt is V: one vm_att or vm_det kernel cross-memory attach.
	VMAtt sim.Time
	// Speed is S: agent instruction speed as a multiple of a 75 MHz
	// PowerPC 601; fixed instruction sequences cost us/S.
	Speed float64
	// PollBase is the part of the proxy polling delay P that does not
	// scale with AgentMiss; P = PollBase + 2*AgentMiss (scanning the
	// command-queue head and the shared non-empty bit vector).
	PollBase sim.Time

	// AdapterOvh is the per-operation occupancy of the custom hardware
	// adapter's protocol engine (Table 3 "Hardware Adapter Overhead").
	AdapterOvh sim.Time
	// ComputeOvh is the compute-processor cost of submitting one command
	// to custom hardware (Table 3 "Compute Processor Overhead").
	ComputeOvh sim.Time

	// SyscallOvh and InterruptOvh are the SW1 protection costs; the paper
	// assumes an aggressive 6.5 us each.
	SyscallOvh   sim.Time
	InterruptOvh sim.Time
	// ProtocolOvh is the kernel protocol-execution time charged to a
	// compute processor per operation under SW1.
	ProtocolOvh sim.Time

	// DMABW is the DMA engine streaming bandwidth (MB/s).
	DMABW float64
	// NetBW is the network link bandwidth (MB/s).
	NetBW float64
	// PIOBW is the sustained programmed-I/O copy bandwidth (MB/s).
	PIOBW float64
	// MemBW is the sustained memory-to-memory copy bandwidth within an SMP
	// (MB/s), used for intra-node communication through shared memory.
	MemBW float64
	// NetLatency is L.
	NetLatency sim.Time

	// PinPerPage is the cost of dynamically pinning one page before DMA
	// (10 us, "a typical number for Unix-based systems"); zero when
	// Prepinned.
	PinPerPage sim.Time
	// PageSize is the VM page size in bytes.
	PageSize int
	// PIOCutoff is the message size (bytes) at or below which data moves
	// by programmed I/O; larger messages pin pages and use DMA.
	PIOCutoff int
	// Prepinned marks custom hardware, whose buffers are permanently
	// pinned at setup time (the paper's deliberate bias toward HW).
	Prepinned bool
}

// PollDelay returns P for this design point.
func (p *Params) PollDelay() sim.Time {
	if p.Kind != Proxy {
		return 0
	}
	return p.PollBase + 2*p.AgentMiss
}

// Instr returns the cost of a fixed instruction sequence that takes us
// microseconds on a 75 MHz processor, scaled by this design point's agent
// speed S.
func (p *Params) Instr(us float64) sim.Time {
	return sim.Micros(us / p.Speed)
}

// XferTime returns the time to move n bytes at mbps megabytes per second.
func XferTime(n int, mbps float64) sim.Time {
	if n <= 0 || mbps <= 0 {
		return 0
	}
	return sim.Micros(float64(n) / mbps)
}

// Pages returns the number of pages n bytes span (assuming page-aligned
// buffers, the best case the paper also assumes).
func (p *Params) Pages(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + p.PageSize - 1) / p.PageSize
}
