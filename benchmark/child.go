package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"mproxy/internal/scenario"
	"mproxy/internal/trace/metrics"
)

// Child modes. Every measured run happens in a fresh child process so no
// rep inherits another's heap, caches or GC state.
const (
	modeTimed   = "timed"   // scenario.Run with no observability: wall_s, peak_rss_mb
	modeSetup   = "setup"   // the constructor mirror: setup_s and setup.*
	modeProfile = "profile" // scenario.Run under the CPU profiler: <layer>.self_s
	modeCount   = "count"   // scenario.Run with obs.metrics "json": exact counts
)

// childResult is what a child reports on its standard output.
type childResult struct {
	WallS      float64            `json:"wall_s,omitempty"`
	Digests    map[string]string  `json:"digests,omitempty"`
	MaxRSSKB   int64              `json:"max_rss_kb"`
	CPUS       float64            `json:"cpu_s"`
	Mallocs    uint64             `json:"mallocs"`
	AllocBytes uint64             `json:"alloc_bytes"`
	GCCycles   uint32             `json:"gc_cycles"`
	GCPauseS   float64            `json:"gc_pause_s"`
	Setup      map[string]float64 `json:"setup,omitempty"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	Counts     map[string]uint64  `json:"counts,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
}

// childMain runs one measured child: it reads the workload's spec as JSON
// on standard input and prints a childResult as JSON on standard output.
func childMain(args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	mode := fs.String("mode", modeTimed, "timed, setup, profile or count")
	dir := fs.String("dir", "", "directory for per-rep forensics output")
	profPath := fs.String("profile", "", "where profile mode saves the raw CPU profile")
	traced := fs.Bool("trace", false, "record spans around calls into the program")
	if err := fs.Parse(args); err != nil {
		return err
	}
	data, err := io.ReadAll(os.Stdin)
	if err != nil {
		return fmt.Errorf("read spec: %w", err)
	}
	spec, err := scenario.ParseJSON(data)
	if err != nil {
		return err
	}
	var rec *spanRecorder
	if *traced {
		rec = &spanRecorder{}
	}
	var res childResult
	switch *mode {
	case modeSetup:
		res.Setup, err = measureSetup(spec, rec)
	case modeTimed, modeProfile, modeCount:
		err = runScenario(&res, *mode, spec, *dir, *profPath, rec)
	default:
		err = fmt.Errorf("unknown child mode %q", *mode)
	}
	if err != nil {
		return err
	}
	readUsage(&res)
	if rec != nil {
		res.Spans = rec.spans
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// runScenario drives the spec through scenario.Run, the entry point the
// CLI's run subcommand uses, and digests everything it wrote.
func runScenario(res *childResult, mode string, spec scenario.Spec, parent, profPath string, rec *spanRecorder) error {
	var dir string
	if spec.Obs.Forensics != "" {
		var err error
		if dir, err = os.MkdirTemp(parent, "forensics-"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		spec.Obs.Forensics = dir
	}
	if mode == modeCount {
		spec.Obs.Metrics = "json"
	}
	var out, prof bytes.Buffer
	if mode == modeProfile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	id := rec.begin(0, "scenario.Run")
	start := time.Now()
	_, err := scenario.Run(spec, &out)
	res.WallS = time.Since(start).Seconds()
	rec.end(id)
	if mode == modeProfile {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return err
	}
	body := out.Bytes()
	switch mode {
	case modeCount:
		var snap metrics.Snapshot
		if body, snap, err = splitMetrics(body); err != nil {
			return err
		}
		res.Counts = countsOf(snap)
	case modeProfile:
		if profPath != "" {
			if err := os.WriteFile(profPath, prof.Bytes(), 0o644); err != nil {
				return err
			}
		}
		if res.Layers, err = foldProfile(prof.Bytes()); err != nil {
			return err
		}
	}
	res.Digests = map[string]string{"output": digest(body)}
	if dir != "" {
		files, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, f := range files {
			b, err := os.ReadFile(filepath.Join(dir, f.Name()))
			if err != nil {
				return err
			}
			res.Digests[f.Name()] = digest(b)
		}
	}
	return nil
}

// splitMetrics separates the metrics collector's JSON report, which
// scenario.Run appends after the experiment's own output, from that
// output. The report is indented JSON whose only column-0 brace is its
// first line.
func splitMetrics(out []byte) ([]byte, metrics.Snapshot, error) {
	var snap metrics.Snapshot
	at := 0
	if !bytes.HasPrefix(out, []byte("{\n")) {
		i := bytes.LastIndex(out, []byte("\n{\n"))
		if i < 0 {
			return nil, snap, errors.New("counted run: no metrics report in the output")
		}
		at = i + 1
	}
	if err := json.Unmarshal(out[at:], &snap); err != nil {
		return nil, snap, fmt.Errorf("counted run: metrics report: %w", err)
	}
	return out[:at], snap, nil
}

// countsOf extracts the benchmark's exact counters from a metrics report.
func countsOf(s metrics.Snapshot) map[string]uint64 {
	c := map[string]uint64{
		"sim.events":       s.ByKind["fire"],
		"sim.parks":        s.ByKind["park"],
		"comm.agent_items": s.ByKind["poll"],
		"comm.ops":         s.ByKind["op-submit"],
		"queue.ops":        s.ByKind["enqueue"],
	}
	for _, cs := range s.Components {
		if cs.Scan != nil {
			c["proxy.scan_passes"] += cs.Scan.Passes
			c["proxy.scan_found"] += cs.Scan.Found
			c["proxy.scan_probes"] += uint64(cs.Scan.Probes)
		}
	}
	return c
}

// readUsage fills in the child's resource use so far.
func readUsage(res *childResult) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		res.MaxRSSKB = ru.Maxrss
		res.CPUS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.Mallocs = ms.Mallocs
	res.AllocBytes = ms.TotalAlloc
	res.GCCycles = ms.NumGC
	res.GCPauseS = time.Duration(ms.PauseTotalNs).Seconds()
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
