package model

// Phase-level latency predictions. Where the closed forms (GETLatency,
// PUTLatency) give one number, the functions below give the Table 2
// grouping the span recorder measures: submission, command-queue wait,
// agent service, wire, input-FIFO wait, delivery. Two conventions differ
// from the closed forms, matching what the simulator's KOpDone timestamp
// observes:
//
//   - Predictions are truncated at the data deposit: the closed forms
//     include setting the synchronization registers and the user's final
//     flag read (PUT: 7C total; here 6 misses — GET: 10C; here 7), which
//     happen at or after the instant the measurement ends.
//   - Predictions carry the size-dependent terms the one-word closed
//     forms fold into constants: programmed-I/O copy time for the payload
//     and wire serialization of header+payload, so they stay comparable
//     to measurements at any PIO-range message size.
type PhaseCost struct {
	Phase string  `json:"phase"`
	Us    float64 `json:"us"`
}

// Total sums a phase list in microseconds.
func Total(phases []PhaseCost) float64 {
	var t float64
	for _, p := range phases {
		t += p.Us
	}
	return t
}

// PhasePrimitives extends the Table 1 machine parameters with the agent
// miss time and the bandwidth terms needed for per-phase, size-aware
// predictions across all three architectures. All times in microseconds,
// bandwidths in MB/s.
type PhasePrimitives struct {
	Primitives
	// A is the miss time on lines shared between agent and compute
	// processor (C, except under MP2's cache-update primitive).
	A float64
	// PIOMBps is the programmed-I/O copy bandwidth; NetMBps the link
	// serialization bandwidth; HeaderBytes the packet header size.
	PIOMBps     float64
	NetMBps     float64
	HeaderBytes int
	// AdapterOvh/ComputeOvh parameterize the custom-hardware points.
	AdapterOvh float64
	ComputeOvh float64
	// Syscall/Interrupt/Protocol parameterize the system-call point.
	Syscall   float64
	Interrupt float64
	Protocol  float64
}

// PioUs returns the programmed-I/O time for n payload bytes.
func (m PhasePrimitives) PioUs(n int) float64 {
	if n <= 0 || m.PIOMBps <= 0 {
		return 0
	}
	return float64(n) / m.PIOMBps
}

// SerUs returns wire serialization time for a packet of n payload bytes
// (header included).
func (m PhasePrimitives) SerUs(n int) float64 {
	if m.NetMBps <= 0 {
		return 0
	}
	return float64(m.HeaderBytes+n) / m.NetMBps
}

// ProxyPUTPhases predicts the phase breakdown of an n-byte PUT (n within
// the PIO range) between two message proxies.
func (m PhasePrimitives) ProxyPUTPhases(n int) []PhaseCost {
	return []PhaseCost{
		{"submit", 2*m.A + 0.2/m.S},
		{"cmdq-wait", m.P},
		{"agent-service", 2*m.A + 3*m.U + m.V + 1.1/m.S + m.PioUs(n)},
		{"wire", m.SerUs(n) + m.L},
		{"input-queue", m.P},
		{"deliver", m.C + m.A + m.U + m.V + 0.9/m.S + m.PioUs(n)},
	}
}

// ProxyGETPhases predicts the phase breakdown of an n-byte GET through
// two message proxies; service, wire and input phases sum both hops.
func (m PhasePrimitives) ProxyGETPhases(n int) []PhaseCost {
	return []PhaseCost{
		{"submit", 2*m.A + 0.2/m.S},
		{"cmdq-wait", m.P},
		{"agent-service", 2*m.A + m.C + 2*m.V + 5*m.U + 2.9/m.S + m.PioUs(n)},
		{"wire", m.SerUs(0) + m.SerUs(n) + 2*m.L},
		{"input-queue", 2 * m.P},
		{"deliver", m.C + m.A + m.U + m.V + 0.5/m.S + m.PioUs(n)},
	}
}

// HWPUTPhases predicts the phase breakdown of an n-byte PUT on custom
// hardware (no polling delay: command and input queues drain
// continuously, so their phases are zero).
func (m PhasePrimitives) HWPUTPhases(n int) []PhaseCost {
	return []PhaseCost{
		{"submit", m.ComputeOvh},
		{"cmdq-wait", 0},
		{"agent-service", m.AdapterOvh + m.C + m.PioUs(n)},
		{"wire", m.SerUs(n) + m.L},
		{"input-queue", 0},
		{"deliver", m.AdapterOvh + m.PioUs(n) + m.C},
	}
}

// HWGETPhases predicts the phase breakdown of an n-byte GET on custom
// hardware.
func (m PhasePrimitives) HWGETPhases(n int) []PhaseCost {
	return []PhaseCost{
		{"submit", m.ComputeOvh},
		{"cmdq-wait", 0},
		{"agent-service", 2*m.AdapterOvh + m.C + m.PioUs(n)},
		{"wire", m.SerUs(0) + m.SerUs(n) + 2*m.L},
		{"input-queue", 0},
		{"deliver", m.AdapterOvh + m.PioUs(n) + m.C},
	}
}

// SWPUTPhases predicts the phase breakdown of an n-byte PUT under
// system-call communication. The kernel send runs inline on the issuing
// processor (submit); the receive interrupt handler runs to the
// completion signal (deliver). There are no agent queues, so no queue
// phases exist.
func (m PhasePrimitives) SWPUTPhases(n int) []PhaseCost {
	return []PhaseCost{
		{"submit", m.Syscall + m.Protocol + m.C + 2*m.U + m.PioUs(n)},
		{"wire", m.SerUs(n) + m.L},
		{"deliver", m.Interrupt + m.Protocol + m.PioUs(n) + 2*m.C},
	}
}

// SWGETPhases predicts the phase breakdown of an n-byte GET under
// system-call communication. The span splits out only the request
// flight's wire time: the reply is launched from kernel interrupt
// context, past the span's last marked boundary (the request's arrival),
// so the request handler, reply flight and reply handler all land in
// deliver, and the prediction groups them the same way.
func (m PhasePrimitives) SWGETPhases(n int) []PhaseCost {
	return []PhaseCost{
		{"submit", m.Syscall + m.Protocol + 2*m.U},
		{"wire", m.SerUs(0) + m.L},
		{"deliver", m.Interrupt + m.Protocol + m.C + m.PioUs(n) + 2*m.U +
			m.SerUs(n) + m.L +
			m.Interrupt + m.Protocol + m.PioUs(n) + 2*m.C},
	}
}
