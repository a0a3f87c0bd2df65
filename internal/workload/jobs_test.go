package workload

import (
	"reflect"
	"testing"

	"mproxy/internal/apps"
	"mproxy/internal/apps/registry"
	"mproxy/internal/arch"
	"mproxy/internal/trace"
)

func factory(t *testing.T, name string) func() apps.App {
	t.Helper()
	spec, err := registry.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return func() apps.App { return spec.New(registry.Test) }
}

// TestParallelMatrixBitIdenticalToSerial is the contract of the worker
// pool: every cell owns an independent engine, so running the Figure 8
// matrix on 4 workers must produce byte-for-byte the curves of the serial
// Speedups path — times, speedups, ordering, everything.
func TestParallelMatrixBitIdenticalToSerial(t *testing.T) {
	newApp := factory(t, "Sample")
	archs := []arch.Params{arch.HW1, arch.MP1, arch.SW1}
	procs := []int{1, 2, 4}

	serial, err := Speedups(newApp, archs, procs, "HW1")
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := SpeedupsJ(newApp, archs, procs, "HW1", 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel curves diverge from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	single, err := SpeedupsJ(newApp, archs, procs, "HW1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, single) {
		t.Fatalf("single-worker pool diverges from serial:\nserial: %+v\npool:   %+v", serial, single)
	}
}

// TestRunJobsOrderAndResults checks results land at their job's index
// regardless of completion order.
func TestRunJobsOrderAndResults(t *testing.T) {
	newApp := factory(t, "Sample")
	var jobs []Job
	want := []struct {
		archName string
		nodes    int
	}{{"HW1", 1}, {"MP1", 2}, {"SW1", 4}, {"MP1", 4}}
	for _, w := range want {
		a, _ := arch.ByName(w.archName)
		jobs = append(jobs, Job{Factory: newApp, Arch: a, Nodes: w.nodes, PPN: 1})
	}
	results, err := RunJobs(jobs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if results[i].Arch != w.archName || results[i].Nodes != w.nodes {
			t.Errorf("result %d = %s %dx%d, want %s %dx1",
				i, results[i].Arch, results[i].Nodes, results[i].PPN, w.archName, w.nodes)
		}
		if results[i].Time <= 0 {
			t.Errorf("result %d has no elapsed time", i)
		}
	}
}

// TestPerJobTracersComposeWithParallelism is the contract of
// Options.Tracer: per-job tracers do not force the pool serial, and each
// job's digest is identical whether the matrix ran on one worker or four
// — per-engine trace streams don't interleave.
func TestPerJobTracersComposeWithParallelism(t *testing.T) {
	newApp := factory(t, "Sample")
	cells := []struct {
		a     arch.Params
		nodes int
	}{
		{arch.MP1, 1}, {arch.MP1, 2}, {arch.HW1, 2}, {arch.SW1, 2},
	}
	run := func(workers int) []string {
		t.Helper()
		digests := make([]*trace.Digest, len(cells))
		jobs := make([]Job, len(cells))
		for i, c := range cells {
			digests[i] = trace.NewDigest()
			jobs[i] = Job{Factory: newApp, Arch: c.a, Nodes: c.nodes, PPN: 1,
				Opts: Options{Tracer: digests[i]}}
		}
		if _, err := RunJobs(jobs, workers); err != nil {
			t.Fatal(err)
		}
		sums := make([]string, len(digests))
		for i, d := range digests {
			if d.Count() == 0 {
				t.Fatalf("cell %d: tracer saw no events", i)
			}
			sums[i] = d.Sum()
		}
		return sums
	}
	serial := run(1)
	parallel := run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("per-job digests diverge between pool sizes:\nserial:   %v\nparallel: %v", serial, parallel)
	}
}

// TestSharedTracerRunsSerially: jobs that share one tracer run on a
// single worker whatever pool size is asked for, so the shared stream is
// the serial one (and -race sees no concurrent Record calls).
func TestSharedTracerRunsSerially(t *testing.T) {
	newApp := factory(t, "Sample")
	run := func(workers int) string {
		t.Helper()
		d := trace.NewDigest()
		var jobs []Job
		for _, a := range []arch.Params{arch.MP1, arch.HW1, arch.SW1, arch.MP2} {
			jobs = append(jobs, Job{Factory: newApp, Arch: a, Nodes: 2, PPN: 1, Opts: Options{Tracer: d}})
		}
		if _, err := RunJobs(jobs, workers); err != nil {
			t.Fatal(err)
		}
		return d.Sum()
	}
	if serial, parallel := run(1), run(4); serial != parallel {
		t.Fatalf("shared-tracer digest depends on pool size: serial %s, parallel %s", serial, parallel)
	}
}
