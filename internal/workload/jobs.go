package workload

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"

	"mproxy/internal/apps"
	"mproxy/internal/arch"
	"mproxy/internal/machine"
)

// Job is one cell of an experiment matrix: an application instance on a
// topology under a design point. Factory must build a fresh App per call;
// a Job may run on any worker goroutine. Opts is the cell's simulation
// options; a shared fault plane is safe (fault planes are stateless and
// keyed by component/sequence, so concurrent engines never interfere).
type Job struct {
	Factory func() apps.App
	Arch    arch.Params
	Nodes   int
	PPN     int
	Opts    Options
}

// sharedTracer reports whether two jobs carry the same tracer. Tracers
// are references (pointers, or fan-out slices of them), so a tracer's
// identity is the address it refers to; one of any other kind counts as
// shared.
func sharedTracer(jobs []Job) bool {
	seen := make(map[uintptr]bool)
	for _, j := range jobs {
		if j.Opts.Tracer == nil {
			continue
		}
		v := reflect.ValueOf(j.Opts.Tracer)
		switch v.Kind() {
		case reflect.Pointer, reflect.Slice:
		default:
			return true
		}
		if seen[v.Pointer()] {
			return true
		}
		seen[v.Pointer()] = true
	}
	return false
}

// RunJobs executes every job and returns their results in job order.
// Jobs run on a bounded pool of worker goroutines — each cell owns an
// independent sim.Engine, and the simulator keeps all mutable state
// inside the engine, so cells are embarrassingly parallel and results
// are bit-identical to a serial run. workers <= 0 picks GOMAXPROCS.
// When jobs share a tracer (the scenario layer hands one tracer to every
// job of a run) the pool degrades to a single worker: a tracer is not
// synchronized, and trace streams interleaved across engines would be
// meaningless anyway. Jobs with tracers of their own still run in
// parallel.
//
// The first job error aborts scheduling of not-yet-started jobs and is
// returned; completed results are still valid.
func RunJobs(jobs []Job, workers int) ([]Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if sharedTracer(jobs) {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, e := range errs {
			if e != nil {
				return true
			}
		}
		return false
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(jobs) || failed() {
					return
				}
				j := jobs[i]
				res, err := RunOpts(j.Factory(), j.Arch, machine.Config{Nodes: j.Nodes, ProcsPerNode: j.PPN}, j.Opts)
				mu.Lock()
				results[i], errs[i] = res, err
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			j := jobs[i]
			return results, fmt.Errorf("job %d (%s %dx%d): %w", i, j.Arch.Name, j.Nodes, j.PPN, err)
		}
	}
	return results, nil
}

// SpeedupsJ is Speedups over a bounded worker pool: the whole
// (arch x procs) matrix — plus the reference cell — is dispatched as
// independent jobs and assembled into the same curves Speedups returns.
func SpeedupsJ(newApp func() apps.App, archs []arch.Params, procs []int, refArch string, workers int) ([]Curve, error) {
	return SpeedupsJOpts(newApp, archs, procs, refArch, workers, Options{})
}

// SpeedupsJOpts is SpeedupsJ with explicit simulation options applied to
// every cell of the matrix.
func SpeedupsJOpts(newApp func() apps.App, archs []arch.Params, procs []int, refArch string, workers int, opt Options) ([]Curve, error) {
	ref, ok := arch.ByName(refArch)
	if !ok {
		return nil, fmt.Errorf("unknown reference architecture %q", refArch)
	}
	jobs := []Job{{Factory: newApp, Arch: ref, Nodes: 1, PPN: 1, Opts: opt}}
	for _, a := range archs {
		for _, p := range procs {
			jobs = append(jobs, Job{Factory: newApp, Arch: a, Nodes: p, PPN: 1, Opts: opt})
		}
	}
	results, err := RunJobs(jobs, workers)
	if err != nil {
		return nil, err
	}
	t1 := results[0].Time
	var curves []Curve
	i := 1
	for _, a := range archs {
		c := Curve{App: results[0].App, Arch: a.Name}
		for _, p := range procs {
			res := results[i]
			i++
			c.Procs = append(c.Procs, p)
			c.Times = append(c.Times, res.Time)
			c.Speedup = append(c.Speedup, float64(t1)/float64(res.Time))
		}
		curves = append(curves, c)
	}
	return curves, nil
}
