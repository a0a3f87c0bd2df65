package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"mproxy/internal/scenario"
)

// childTimeout bounds one child process; the longest rep takes seconds,
// so reaching it means the child hung.
const childTimeout = 150 * time.Second

// wlRun collects one workload's children over a set.
type wlRun struct {
	name string
	spec scenario.Spec     // normalized, with the run's seed
	want map[string]string // digests every rep must reproduce; nil until the first rep when unpinned

	timed, setups  []childResult
	profile, count *childResult

	attempted, failed int
	failures          []string
}

func (w *wlRun) fail(format string, args ...any) {
	w.failed++
	msg := w.name + ": " + fmt.Sprintf(format, args...)
	w.failures = append(w.failures, msg)
	fmt.Fprintln(os.Stderr, "FAIL", msg)
}

// check compares a rep's digests with the workload's reference and
// records every file that differs as one failure.
func (w *wlRun) check(what string, got map[string]string) {
	if w.want == nil {
		w.want = got
		return
	}
	var diffs []string
	for _, k := range unionKeys(got, w.want) {
		if got[k] != w.want[k] {
			diffs = append(diffs, fmt.Sprintf("%s differs (got sha256 %q, want %q)", k, got[k], w.want[k]))
		}
	}
	if diffs != nil {
		w.fail("%s: %s", what, strings.Join(diffs, "; "))
	}
}

// unionKeys returns the keys of a and b, sorted.
func unionKeys[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range []map[string]V{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// bench runs children for a set of workloads.
type bench struct {
	self  string // executable that runs the children (this program)
	dir   string // where children put per-rep forensics and raw profiles
	procs int    // GOMAXPROCS of every child
	rec   *spanRecorder
}

// child runs one child process of the given mode for w, records it under
// parent, and checks its output. It returns nil when the child failed to
// run; a child whose output differs is returned and counted as failed.
func (b *bench) child(parent int, w *wlRun, mode, what string) *childResult {
	w.attempted++
	spec, err := json.Marshal(w.spec)
	if err != nil {
		w.fail("%s: %v", what, err)
		return nil
	}
	args := []string{"child", "-mode", mode, "-dir", b.dir}
	if mode == modeProfile {
		args = append(args, "-profile", filepath.Join(b.dir, w.name+".cpu.pprof"))
	}
	if b.rec != nil {
		args = append(args, "-trace")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.self, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(b.procs))
	cmd.Stdin = bytes.NewReader(spec)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	id := b.rec.begin(parent, "child "+mode)
	err = cmd.Run()
	b.rec.end(id)
	if err != nil {
		w.fail("%s: child: %v", what, err)
		return nil
	}
	res := &childResult{}
	if err := json.Unmarshal(out.Bytes(), res); err != nil {
		w.fail("%s: child result: %v", what, err)
		return nil
	}
	b.rec.adopt(id, res.Spans)
	res.Spans = nil
	if mode != modeSetup {
		w.check(what, res.Digests)
	}
	return res
}

// setConfig selects what one set runs.
type setConfig struct {
	workloads []*wlRun
	rounds    int
	trace     bool
}

// runSet measures the workloads: a fixed number of rounds of one timed and
// one set-up child per workload, interleaved so a burst of host noise hits
// every workload alike; then, when tracing, one profiled and one counted
// child each.
func (b *bench) runSet(cfg setConfig) {
	set := b.rec.begin(0, "set")
	for n := 1; n <= cfg.rounds; n++ {
		for _, w := range cfg.workloads {
			rep := b.rec.begin(set, fmt.Sprintf("%s rep %d", w.name, n))
			if r := b.child(rep, w, modeTimed, fmt.Sprintf("timed rep %d", n)); r != nil {
				w.timed = append(w.timed, *r)
				fmt.Fprintf(os.Stderr, "%s rep %d: wall %.3f s, peak rss %.1f MiB\n", w.name, n, r.WallS, float64(r.MaxRSSKB)/1024)
			}
			if r := b.child(rep, w, modeSetup, fmt.Sprintf("setup rep %d", n)); r != nil {
				w.setups = append(w.setups, *r)
				fmt.Fprintf(os.Stderr, "%s rep %d: setup %.4f s\n", w.name, n, r.Setup["total"])
			}
			b.rec.end(rep)
		}
	}
	if cfg.trace {
		for _, w := range cfg.workloads {
			for _, mode := range []string{modeProfile, modeCount} {
				rep := b.rec.begin(set, w.name+" "+mode)
				r := b.child(rep, w, mode, mode+" run")
				if mode == modeProfile {
					w.profile = r
				} else {
					w.count = r
				}
				b.rec.end(rep)
			}
		}
	}
	b.rec.end(set)
}
