package comm

import (
	"mproxy/internal/arch"
	"mproxy/internal/memory"
	"mproxy/internal/sim"
)

// Per-architecture cost fragments shared by the micro paths.

// pio returns the programmed-I/O time for n payload bytes.
func (f *Fabric) pio(n int) sim.Time { return arch.XferTime(n, f.A.PIOBW) }

// agentCosts are the costs the agents' shared protocol states charge
// where the message proxy and the custom-hardware adapter differ,
// derived once per fabric from the Section 4 parameters.
type agentCosts struct {
	syncWrite   sim.Time // writing a synchronization flag in user memory
	ack         sim.Time // building and launching a PUT acknowledgment
	getReplyPIO sim.Time // building a PIO GET reply, before its payload's PIO
	getReplyDMA sim.Time // setting up a GET reply's page stream
	deqReply    sim.Time // building a DEQ reply, before its record's PIO
}

func agentCostsOf(A *arch.Params) agentCosts {
	if A.Kind == arch.CustomHW {
		// The protocol engine writes flags and reads sources over the
		// bus, and pays its occupancy once per message it builds.
		return agentCosts{
			syncWrite:   A.CacheMiss,
			ack:         A.AdapterOvh,
			getReplyPIO: A.AdapterOvh + A.CacheMiss,
			getReplyDMA: A.AdapterOvh,
			deqReply:    A.AdapterOvh,
		}
	}
	// The proxy's flag writes miss in its cache (AgentMiss, reduced by
	// MP2's cache update); a message is a header written through uncached
	// FIFO accesses, a read of the source (miss + uncached), and a launch.
	return agentCosts{
		syncWrite:   A.AgentMiss,
		ack:         A.Uncached + A.Instr(0.3) + A.Uncached,
		getReplyPIO: A.Uncached + A.Instr(0.7) + A.AgentMiss + A.Uncached + A.Uncached,
		getReplyDMA: A.Uncached + A.Instr(0.8),
		deqReply:    A.Uncached + A.Instr(0.5) + A.AgentMiss + A.Uncached,
	}
}

// detectCost is what a user pays to observe a completed synchronization
// flag: a miss on the flag's line (written by the agent), plus a status
// system call under SW, where completion state lives in the kernel.
func (f *Fabric) detectCost() sim.Time {
	switch f.A.Kind {
	case arch.Proxy:
		return f.A.AgentMiss
	case arch.Syscall:
		return f.A.SyscallOvh
	default:
		return f.A.CacheMiss
	}
}

// dequeueCost is the user-level cost of popping a record from a queue in
// its own address space: misses on the head pointer and the record (both
// written by the agent), plus a system call under SW, where the kernel must
// copy the record out of a protected buffer.
func (f *Fabric) dequeueCost() sim.Time {
	switch f.A.Kind {
	case arch.Proxy:
		return 2*f.A.AgentMiss + f.A.Instr(0.2)
	case arch.Syscall:
		return f.A.SyscallOvh + 2*f.A.CacheMiss + f.A.Instr(0.2)
	default:
		return 2*f.A.CacheMiss + f.A.Instr(0.2)
	}
}

// drainEntryCost is the fixed cost of entering a queue-drain: under SW a
// single receive system call (plus the wakeup signal) can deliver every
// buffered record, so the per-batch kernel crossing is paid once.
func (f *Fabric) drainEntryCost() sim.Time {
	if f.A.Kind == arch.Syscall {
		return f.A.SyscallOvh + f.A.InterruptOvh
	}
	return 0
}

// drainRecordCost is the per-record cost within a batched drain: the head
// and record misses plus bookkeeping, with no additional kernel crossing.
func (f *Fabric) drainRecordCost() sim.Time {
	return 2*f.A.CacheMiss + f.A.Instr(0.2)
}

// DrainStart charges the entry cost of a batched receive and reports
// whether the queue has records. Use with TryRecvBatched to drain a queue
// under batch accounting.
func (ep *Endpoint) DrainStart(q *memory.RQueue) bool {
	if q.Len() == 0 {
		return false
	}
	ep.cpu.Compute(ep.proc, ep.f.drainEntryCost())
	return true
}

// TryRecvBatched is TryRecv under batch accounting: the caller has already
// paid the kernel crossing through DrainStart.
func (ep *Endpoint) TryRecvBatched(q *memory.RQueue) ([]byte, bool) {
	rec, ok := q.TryTake()
	if ok {
		ep.cpu.Compute(ep.proc, ep.f.drainRecordCost())
	}
	return rec, ok
}

// SubmitCost returns the compute-processor time to submit one command
// (exported for the micro-benchmark overhead analysis).
func (f *Fabric) SubmitCost() sim.Time {
	switch f.A.Kind {
	case arch.Proxy:
		return 2*f.A.AgentMiss + f.A.Instr(0.2)
	case arch.Syscall:
		return f.A.SyscallOvh + f.A.ProtocolOvh
	default:
		return f.A.ComputeOvh
	}
}

// DetectCost exposes detectCost for the overhead analysis.
func (f *Fabric) DetectCost() sim.Time { return f.detectCost() }
