package proxy

import "testing"

type pass struct {
	probes, headChecks int64
	found              bool
}

// passLog is an Observer that records every pass.
type passLog struct{ passes []pass }

func (l *passLog) ScanPass(probes, headChecks int64, found bool) {
	l.passes = append(l.passes, pass{probes, headChecks, found})
}

// TestScannerObserver checks the per-pass observer hook the trace layer
// hangs off the scanner: one notification per Next call, with pass-local
// (not cumulative) probe and head-check counts and the found flag.
func TestScannerObserver(t *testing.T) {
	s := NewScanner[any]()
	log := &passLog{}
	s.SetObserver(log)

	// Empty scan set: a pass is still observed.
	if _, _, ok := s.Next(); ok {
		t.Fatal("Next on empty scanner found a command")
	}
	if len(log.passes) != 1 || log.passes[0] != (pass{0, 0, false}) {
		t.Fatalf("empty-set pass = %+v", log.passes)
	}

	qa := NewCommandQueue[any](0, 4)
	qb := NewCommandQueue[any](1, 4)
	ia := s.Register(qa)
	ib := s.Register(qb)
	if err := qa.Enqueue(0, "a"); err != nil {
		t.Fatal(err)
	}
	s.MarkNonEmpty(ia)
	if err := qb.Enqueue(1, "b"); err != nil {
		t.Fatal(err)
	}
	s.MarkNonEmpty(ib)

	for i := 0; i < 2; i++ {
		if _, _, ok := s.Next(); !ok {
			t.Fatalf("Next %d found nothing", i)
		}
	}
	if _, _, ok := s.Next(); ok {
		t.Fatal("drained scanner still found a command")
	}
	if len(log.passes) != 4 {
		t.Fatalf("observed %d log.passes, want 4", len(log.passes))
	}
	for i, p := range log.passes[1:3] {
		if !p.found {
			t.Errorf("pass %d: found = false, want true", i+1)
		}
		if p.headChecks != 1 {
			t.Errorf("pass %d: headChecks = %d, want 1 (per-pass, not cumulative)", i+1, p.headChecks)
		}
		if p.probes < 1 {
			t.Errorf("pass %d: probes = %d, want >= 1", i+1, p.probes)
		}
	}
	if last := log.passes[3]; last.found || last.probes < 1 {
		t.Errorf("drained pass = %+v, want found=false with >=1 probe", last)
	}

	// Removing the observer stops notifications.
	s.SetObserver(nil)
	s.Next()
	if len(log.passes) != 4 {
		t.Fatalf("observer fired after removal: %d log.passes", len(log.passes))
	}
}
