package machine

import (
	"testing"

	"mproxy/internal/arch"
	"mproxy/internal/sim"
)

// TestAgentUtilizationSinceMidService: the sampler's windowed utilization
// must stay exact when a window boundary falls inside a work item, which is
// the common case for long DMA-backed services.
func TestAgentUtilizationSinceMidService(t *testing.T) {
	withEngine(t, func(t *testing.T, eng *sim.Engine) {
		a := testAgent(eng, "ag", 0)
		eng.Spawn("client", func(p *sim.Proc) {
			p.Hold(100)
			a.Submit(0, holdWork(300, nil)) // service over [100, 400)
		})
		var utils []float64
		eng.Spawn("sampler", func(p *sim.Proc) {
			var since, busyAt sim.Time
			for _, at := range []sim.Time{200, 350, 450} {
				p.Hold(at - p.Now())
				utils = append(utils, a.UtilizationSince(since, busyAt))
				since, busyAt = p.Now(), a.BusyTime()
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		want := []float64{0.5, 1.0, 0.5}
		for i, w := range want {
			if utils[i] != w {
				t.Errorf("window %d utilization = %v, want %v", i, utils[i], w)
			}
		}
		if got := a.BusyTime(); got != 300 {
			t.Errorf("final BusyTime = %v, want 300", got)
		}
	})
}

// TestLinkUtilizationSinceMidSerialization: a send books the whole packet's
// serialization up front; BusyTime clips the not-yet-elapsed tail so a
// window cut mid-packet sees only the elapsed share.
func TestLinkUtilizationSinceMidSerialization(t *testing.T) {
	eng := sim.NewEngine()
	const mbps = 100.0
	xfer := arch.XferTime(3000, mbps) // 30us
	l := NewLink(eng, "nic", mbps, sim.Microsecond)
	var mid, tail float64
	var busyMid sim.Time
	eng.Spawn("driver", func(p *sim.Proc) {
		p.Hold(100)
		l.SendToSink(3000, discard, nil)
		p.Hold(xfer / 2)
		// Window [100, 100+xfer/2): the port has been serializing throughout.
		mid = l.UtilizationSince(100, 0)
		busyMid = l.BusyTime()
		at := p.Now()
		p.Hold(xfer)
		// Window [100+xfer/2, 100+3*xfer/2): busy only to 100+xfer.
		tail = l.UtilizationSince(at, busyMid)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if mid != 1.0 {
		t.Errorf("mid-packet window utilization = %v, want 1.0", mid)
	}
	if tail != 0.5 {
		t.Errorf("tail window utilization = %v, want 0.5", tail)
	}
	if got := l.BusyTime(); got != xfer {
		t.Errorf("final BusyTime = %v, want %v", got, xfer)
	}
}
