package bench

import (
	"strings"
	"testing"
)

func goodSuite() Suite {
	return Suite{
		Schema: Schema,
		Results: []Result{
			{Name: "a", Ops: 100, NsPerOp: 10, OpsPerSec: 1e8, AllocsPerOp: 0, BytesPerOp: 0, EventsPerOp: 1},
			{Name: "b", Ops: 50, NsPerOp: 200, OpsPerSec: 5e6, AllocsPerOp: 2.5, BytesPerOp: 128, EventsPerOp: 10.42},
		},
	}
}

func TestValidateAcceptsGoodSuite(t *testing.T) {
	if err := Validate(goodSuite()); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Suite)
		want string
	}{
		{"wrong schema", func(s *Suite) { s.Schema = "mproxy-bench/v0" }, "schema"},
		{"empty results", func(s *Suite) { s.Results = nil }, "empty"},
		{"empty name", func(s *Suite) { s.Results[0].Name = "" }, "empty name"},
		{"duplicate name", func(s *Suite) { s.Results[1].Name = "a" }, "duplicate"},
		{"zero ops", func(s *Suite) { s.Results[0].Ops = 0 }, "ops"},
		{"negative allocs", func(s *Suite) { s.Results[0].AllocsPerOp = -1 }, "allocs_per_op"},
		{"nan bytes", func(s *Suite) { s.Results[0].BytesPerOp = nan() }, "bytes_per_op"},
		{"negative events", func(s *Suite) { s.Results[1].EventsPerOp = -1 }, "events_per_op"},
		{"zero timing", func(s *Suite) { s.Results[0].NsPerOp = 0 }, "timing"},
	}
	for _, tc := range cases {
		s := goodSuite()
		tc.mut(&s)
		err := Validate(s)
		if err == nil {
			t.Errorf("%s: Validate accepted a broken suite", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func nan() float64 {
	zero := 0.0
	return zero / zero
}

func TestJSONRoundTrip(t *testing.T) {
	s := goodSuite()
	got, err := ParseJSON(s.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(s.Results) || got.Schema != s.Schema {
		t.Fatalf("round trip mangled the suite: %+v", got)
	}
	for i := range s.Results {
		if got.Results[i] != s.Results[i] {
			t.Fatalf("result %d: got %+v, want %+v", i, got.Results[i], s.Results[i])
		}
	}
}

func TestParseJSONRejectsUnknownFields(t *testing.T) {
	data := []byte(`{"schema":"` + Schema + `","quick":false,"surprise":1,"results":[]}`)
	if _, err := ParseJSON(data); err == nil {
		t.Fatal("ParseJSON accepted an unknown field")
	}
}

func TestCompare(t *testing.T) {
	base := goodSuite()

	t.Run("identical passes", func(t *testing.T) {
		if err := Compare(goodSuite(), base, 0.10); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("missing row fails", func(t *testing.T) {
		cur := goodSuite()
		cur.Results = cur.Results[:1]
		if err := Compare(cur, base, 0.10); err == nil {
			t.Fatal("missing baseline row not reported")
		}
	})
	t.Run("extra current row ignored", func(t *testing.T) {
		cur := goodSuite()
		cur.Results = append(cur.Results, Result{Name: "new", Ops: 1, NsPerOp: 1, OpsPerSec: 1})
		if err := Compare(cur, base, 0.10); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("throughput within tolerance passes", func(t *testing.T) {
		cur := goodSuite()
		cur.Results[0].OpsPerSec = base.Results[0].OpsPerSec * 0.95
		if err := Compare(cur, base, 0.10); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("throughput regression fails", func(t *testing.T) {
		cur := goodSuite()
		cur.Results[0].OpsPerSec = base.Results[0].OpsPerSec * 0.85
		err := Compare(cur, base, 0.10)
		if err == nil || !strings.Contains(err.Error(), "throughput") {
			t.Fatalf("err = %v, want throughput regression", err)
		}
	})
	t.Run("half-alloc slack on zero baseline", func(t *testing.T) {
		cur := goodSuite()
		cur.Results[0].AllocsPerOp = 0.4 // baseline 0: jitter below 0.5 tolerated
		if err := Compare(cur, base, 0.10); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("any events change fails", func(t *testing.T) {
		for _, f := range []float64{0.98, 1.02} {
			cur := goodSuite()
			cur.Results[1].EventsPerOp = base.Results[1].EventsPerOp * f
			err := Compare(cur, base, 0.10)
			if err == nil || !strings.Contains(err.Error(), "events/op") {
				t.Fatalf("events/op x%v: err = %v, want an exact-gate failure", f, err)
			}
		}
	})
	t.Run("baseline without events is not gated", func(t *testing.T) {
		old := goodSuite()
		old.Results[1].EventsPerOp = 0 // recorded before the field existed
		if err := Compare(goodSuite(), old, 0.10); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("alloc growth within the wall tolerance fails", func(t *testing.T) {
		// Baseline 2.5 allocs/op: 3.2 is within 10% + 0.5 but not within
		// the allocation gate's own 0.5% + 0.5 (3.0125).
		cur := goodSuite()
		cur.Results[1].AllocsPerOp = 3.2
		err := Compare(cur, base, 0.10)
		if err == nil || !strings.Contains(err.Error(), "allocation") {
			t.Fatalf("err = %v, want allocation regression", err)
		}
		cur.Results[1].AllocsPerOp = 3.0
		if err := Compare(cur, base, 0.10); err != nil {
			t.Fatalf("3.0 allocs/op against 2.5: %v", err)
		}
	})
	t.Run("alloc regression fails", func(t *testing.T) {
		cur := goodSuite()
		cur.Results[0].AllocsPerOp = 1.0 // baseline 0: a whole new alloc/op is real
		err := Compare(cur, base, 0.10)
		if err == nil || !strings.Contains(err.Error(), "allocation") {
			t.Fatalf("err = %v, want allocation regression", err)
		}
	})
}

// TestRunQuickSmoke runs the real suite end to end at quick settings and
// self-compares: the suite must validate, serialize, re-parse, and pass
// Compare against itself.
func TestRunQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	s, err := Run(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Results) != 12 {
		t.Fatalf("suite has %d results, want 12", len(s.Results))
	}
	for _, r := range s.Results {
		if r.EventsPerOp <= 0 {
			t.Errorf("%s: events_per_op %v, want > 0 on every row", r.Name, r.EventsPerOp)
		}
		// Every row that drives the timer queue reports its work.
		switch r.Name {
		case "engine-timer", "engine-deep", "pingpong-e2e", "serving-smoke", "serving-forensics",
			"serving-proxysched", "serving-smoke-par", "engine-par-events":
			if r.PushesPerOp <= 0 || r.SettlesPerOp <= 0 || r.PeakPending <= 0 {
				t.Errorf("%s: timer queue pushes/op %v, settles/op %v, peak %d, want all > 0",
					r.Name, r.PushesPerOp, r.SettlesPerOp, r.PeakPending)
			}
		}
	}
	reparsed, err := ParseJSON(s.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if err := Compare(reparsed, s, 0.0); err != nil {
		t.Fatal(err)
	}
}
