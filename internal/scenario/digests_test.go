package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"slices"
	"testing"
)

var update = flag.Bool("update", false, "re-bless testdata/preset_digests.json")

// digestsFile pins the rendered output of every digest case at both
// test scales. The digests were recorded from the blocking-coroutine
// reference implementation of the protocol agents, so holding the
// run-to-completion agents to them keeps the two byte-equal without the
// reference living on as code.
const digestsFile = "testdata/preset_digests.json"

// outputDigest is one case's pinned render: the SHA-256 and length of
// its output bytes.
type outputDigest struct {
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
}

// scaleName keys digestsFile by the scale a case ran at.
func scaleName(short bool) string {
	if short {
		return "short"
	}
	return "full"
}

type digestCase struct {
	name string
	spec Spec
}

// digestCases lists every pinned case at one scale: each named preset
// plus the explicit multi-proxy serving specs.
func digestCases(t *testing.T, short bool) []digestCase {
	t.Helper()
	var cases []digestCase
	for _, name := range PresetNames() {
		p, err := PresetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, digestCase{name, scaleSpec(p.Spec, short)})
	}
	for _, sched := range []string{"static", "shard", "steal"} {
		spec := multiProxyServingSpec(sched)
		cases = append(cases, digestCase{spec.Name, spec})
	}
	return cases
}

// renderDigest runs spec and digests its output bytes.
func renderDigest(t *testing.T, spec Spec) outputDigest {
	t.Helper()
	if spec.Obs.Forensics != "" {
		// The preset's directory is relative to the repo root; write the
		// side-channel files somewhere real instead (stdout still carries
		// the forensics note, so the digest covers the recorder path).
		spec.Obs.Forensics = t.TempDir()
	}
	var buf bytes.Buffer
	mf, err := Run(spec, &buf)
	if err != nil {
		t.Fatal(err)
	}
	return outputDigest{SHA256: mf.OutputSHA256, Bytes: mf.OutputBytes}
}

// loadDigests reads digestsFile: scale name -> case name -> digest.
func loadDigests(t *testing.T) map[string]map[string]outputDigest {
	t.Helper()
	raw, err := os.ReadFile(digestsFile)
	if err != nil {
		t.Fatalf("read digests (re-bless with -update): %v", err)
	}
	var d map[string]map[string]outputDigest
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// checkDigest renders spec — case name at the scale shortScale selects —
// and holds its output to the blessed digest. Under -update it skips:
// TestPresetDigests re-blesses every case.
func checkDigest(t *testing.T, name string, spec Spec) {
	t.Helper()
	if *update {
		t.Skip("re-blessing: TestPresetDigests renders every case")
	}
	key := scaleName(shortScale())
	want, ok := loadDigests(t)[key][name]
	if !ok {
		t.Fatalf("no blessed digest for %s/%s (re-bless with -update)", key, name)
	}
	if got := renderDigest(t, spec); got != want {
		t.Fatalf("output diverges from the blessed digest:\n  got  %d bytes, sha %s\n  want %d bytes, sha %s",
			got.Bytes, got.SHA256, want.Bytes, want.SHA256)
	}
}

// TestPresetDigests keeps testdata/preset_digests.json in step with the
// case list: every case has a digest at both scales, and no stale entry
// lingers. With -update it renders every case at both scales and
// rewrites the file.
func TestPresetDigests(t *testing.T) {
	if !*update {
		blessed := loadDigests(t)
		for _, short := range []bool{false, true} {
			key := scaleName(short)
			var want, got []string
			for _, c := range digestCases(t, short) {
				want = append(want, c.name)
			}
			for name := range blessed[key] {
				got = append(got, name)
			}
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s: blessed cases %v, want %v (re-bless with -update)", key, got, want)
			}
		}
		return
	}
	out := map[string]map[string]outputDigest{}
	for _, short := range []bool{false, true} {
		key := scaleName(short)
		out[key] = map[string]outputDigest{}
		for _, c := range digestCases(t, short) {
			out[key][c.name] = renderDigest(t, c.spec)
		}
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(digestsFile, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
