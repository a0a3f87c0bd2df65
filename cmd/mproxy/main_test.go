package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the smoke-test goldens")

// Every former experiment subcommand is a spec file under
// testdata/specs; each runs in-process through mproxy run and must
// reproduce its blessed golden byte for byte, as must the argv-only
// cases below. Regenerate with
//
//	go test ./cmd/mproxy -run TestSmoke -update
func TestSmoke(t *testing.T) {
	cases := map[string][]string{
		"run-preset": {"run", "table3"},
		"list":       {"list"},
	}
	// Goldens pinned by other tests' stderr rather than by a smoke case.
	stderrGoldens := map[string]bool{"run-unknown-preset": true, "run-forensics-bad-dir": true}

	specs, err := filepath.Glob(filepath.Join("testdata", "specs", "*.json"))
	if err != nil || len(specs) == 0 {
		t.Fatalf("no spec files under testdata/specs: %v", err)
	}
	for _, path := range specs {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		if _, dup := cases[name]; dup {
			t.Fatalf("spec file %s shadows an argv case", path)
		}
		cases[name] = []string{"run", path}
	}
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldens {
		name := strings.TrimSuffix(filepath.Base(g), ".golden")
		if _, ok := cases[name]; !ok && !stderrGoldens[name] {
			t.Errorf("golden %s has no spec file testdata/specs/%s.json", g, name)
		}
	}

	for _, name := range slices.Sorted(maps.Keys(cases)) {
		args := cases[name]
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("spec file has no golden (run with -update): %v", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("output drifted from %s:\ngot:\n%s\nwant:\n%s", golden, stdout.Bytes(), want)
			}
		})
	}
}

// An unknown preset name must fail with an error that lists every
// available preset, pinned by a golden so the listing stays wired up.
func TestUnknownPresetListsNames(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"run", "no-such-preset"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	golden := filepath.Join("testdata", "run-unknown-preset.golden")
	if *update {
		if err := os.WriteFile(golden, stderr.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(stderr.Bytes(), want) {
		t.Errorf("stderr drifted from %s:\ngot:\n%s\nwant:\n%s", golden, stderr.Bytes(), want)
	}
	for _, name := range []string{"table3", "serving-fattree-1k", "serving-smoke"} {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("unknown-preset error does not list %s:\n%s", name, stderr.String())
		}
	}
}

// A forensics run pointed at a missing directory must fail before any
// simulation happens, with a clear error naming the path; pinned by a
// golden like the unknown-preset message.
func TestForensicsBadDirErrorsEarly(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"run", "-forensics", "no-such-dir", "serving-smoke-forensics"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty — the run simulated before failing:\n%s", stdout.String())
	}
	golden := filepath.Join("testdata", "run-forensics-bad-dir.golden")
	if *update {
		if err := os.WriteFile(golden, stderr.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(stderr.Bytes(), want) {
		t.Errorf("stderr drifted from %s:\ngot:\n%s\nwant:\n%s", golden, stderr.Bytes(), want)
	}
}

// The forensics preset regenerates its three checked-in side-channel
// files byte-identically into any directory: the slowest-requests
// table, the windowed series JSON, and the Chrome exemplar trace.
func TestForensicsByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("serving sweep is not short")
	}
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"run", "-forensics", dir, "serving-smoke-forensics"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "forensics: wrote serving_smoke_forensics.slowest.txt") {
		t.Errorf("stdout missing the forensics note:\n%s", stdout.String())
	}
	for _, f := range []string{
		"serving_smoke_forensics.slowest.txt",
		"serving_smoke_forensics.flight.json",
		"serving_smoke_forensics.chrome.json",
	} {
		got, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("forensics run did not write %s: %v", f, err)
		}
		blessed := filepath.Join("..", "..", "results", "forensics", f)
		if *update {
			if err := os.WriteFile(blessed, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(blessed)
		if err != nil {
			t.Fatalf("missing blessed forensics file (run with -update): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s no longer reproduces results/forensics/%s byte-identically", f, f)
		}
	}
}

// A run emits exactly one manifest JSON line on stderr.
func TestManifestOnStderr(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"run", filepath.Join("testdata", "specs", "micro-params.json")}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d", code)
	}
	var m struct {
		Name   string `json:"name"`
		Kind   string `json:"kind"`
		Spec   string `json:"spec_sha256"`
		Output string `json:"output_sha256"`
		Bytes  int    `json:"output_bytes"`
	}
	if err := json.Unmarshal(stderr.Bytes(), &m); err != nil {
		t.Fatalf("stderr is not one manifest JSON line: %q", stderr.String())
	}
	if m.Kind != "micro-params" || len(m.Spec) != 64 || len(m.Output) != 64 {
		t.Errorf("implausible manifest: %+v", m)
	}
	if m.Bytes != stdout.Len() {
		t.Errorf("manifest counts %d output bytes, stdout has %d", m.Bytes, stdout.Len())
	}
}

// Identical invocations produce identical manifests: the digest pair is
// the reproducibility contract.
func TestManifestDeterministic(t *testing.T) {
	grab := func() string {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"run", filepath.Join("testdata", "specs", "fault-sweep.json")}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d", code)
		}
		return stderr.String()
	}
	if a, b := grab(), grab(); a != b {
		t.Errorf("manifests differ between identical runs:\n%s%s", a, b)
	}
}

// The cheap presets must regenerate their checked-in results tables
// byte-identically; the expensive ones are covered by ci.sh.
func TestResultsByteIdentity(t *testing.T) {
	cheap := []string{"section4-model", "table3", "table4", "figure7"}
	if !testing.Short() {
		cheap = append(cheap, "table6", "section54-queueing", "serving-smoke")
	}
	for _, name := range cheap {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"run", name}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			path := map[string]string{
				"section4-model":     "section4_model.txt",
				"table3":             "table3.txt",
				"table4":             "table4.txt",
				"figure7":            "figure7.txt",
				"table6":             "table6.txt",
				"section54-queueing": "section54_queueing.txt",
				"serving-smoke":      "serving_smoke.txt",
			}[name]
			want, err := os.ReadFile(filepath.Join("..", "..", "results", path))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("mproxy run %s no longer reproduces results/%s byte-identically", name, path)
			}
		})
	}
}

// A spec file runs the same experiment as the preset it spells out.
func TestRunSpecFile(t *testing.T) {
	spec := `{"kind": "model"}`
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var fromFile, fromPreset bytes.Buffer
	if code := run([]string{"run", path}, &fromFile, &bytes.Buffer{}); code != 0 {
		t.Fatal("run spec.json failed")
	}
	if code := run([]string{"run", "section4-model"}, &fromPreset, &bytes.Buffer{}); code != 0 {
		t.Fatal("run section4-model failed")
	}
	if !bytes.Equal(fromFile.Bytes(), fromPreset.Bytes()) {
		t.Error("spec-file run differs from the preset run of the same experiment")
	}
}

// An observability sink that cannot be written fails the run before it
// simulates: exit 1, nothing on stdout, the path named on stderr.
func TestObsBadDirFailsRun(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "trace.json")
	path := filepath.Join(t.TempDir(), "spec.json")
	spec := fmt.Sprintf(`{"kind": "micro-params", "obs": {"chrome": %q}}`, missing)
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"run", path}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty — the run simulated before failing:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "obs.chrome") {
		t.Errorf("error does not name the failing sink:\n%s", stderr.String())
	}
}

func TestBadInvocations(t *testing.T) {
	dir := t.TempDir()
	badArch := filepath.Join(dir, "bad-arch.json")
	if err := os.WriteFile(badArch, []byte(`{"kind": "micro-table4", "archs": ["MP9"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"frobnicate"}, 2},
		{[]string{"micro"}, 2}, // the retired flag-alias subcommands are unknown
		{[]string{"run"}, 2},
		{[]string{"run", "table3", "table4"}, 2},
		{[]string{"run", "no-such-preset"}, 1},
		{[]string{"run", badArch}, 1},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("run(%v) exit %d, want %d (stderr: %s)", tc.args, code, tc.code, stderr.String())
		}
	}
}

func TestHelpListsEverySubcommand(t *testing.T) {
	var stdout bytes.Buffer
	if code := run([]string{"help"}, &stdout, &bytes.Buffer{}); code != 0 {
		t.Fatal("help failed")
	}
	for _, name := range []string{"run", "list", "bench", "help"} {
		if !strings.Contains(stdout.String(), "\n  "+name) {
			t.Errorf("help output missing subcommand %s", name)
		}
	}
}
