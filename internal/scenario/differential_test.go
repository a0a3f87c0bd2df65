package scenario

import (
	"bytes"
	"testing"
)

// shortScale reports whether the scenario tests run their shrunk specs:
// under -short or the race detector (which multiplies simulation cost
// several times over).
func shortScale() bool { return testing.Short() || raceEnabled }

// diffScale shrinks spec to the problem scale the current test mode runs
// (see scaleSpec).
func diffScale(spec Spec) Spec { return scaleSpec(spec, shortScale()) }

// scaleSpec picks the problem scale for the preset sweeps. The full
// preset scales cover the exact blessed workloads; at the short scale
// the app-driven presets drop to test scale — the protocol paths
// exercised are the same, only the iteration counts shrink.
func scaleSpec(spec Spec, short bool) Spec {
	if short {
		if spec.Scale != "" || spec.Kind == KindAppsFigure8 || spec.Kind == KindAppsTable6 {
			spec.Scale = "test"
		}
		if spec.Reps > 2 {
			spec.Reps = 2
		}
	}
	// The serving presets shrink unconditionally: the 1k-node sweeps issue
	// over a million requests each and belong to ci.sh full, not go test.
	// The shrunk runs still walk every protocol path (multi-switch routing,
	// replication fan-out, open-loop pacing).
	if spec.Kind == KindServing || spec.Kind == KindProxySweep {
		if spec.Topology.Nodes > 8 {
			spec.Topology.Nodes = 8
		}
		if sv := spec.Serving; sv != nil {
			shrunk := *sv
			if shrunk.Requests > 800 {
				shrunk.Requests = 800
			}
			if shrunk.Warmup > 100 {
				shrunk.Warmup = 100
			}
			if len(shrunk.LoadUs) > 2 {
				shrunk.LoadUs = shrunk.LoadUs[:2]
			}
			// The sweep grid shrinks to its interesting corner — every
			// policy, but only the multi-proxy count that exercises the
			// steal and shard paths alongside the single-proxy baseline.
			if len(shrunk.ProxyCounts) > 2 {
				shrunk.ProxyCounts = []int{1, 2}
			}
			spec.Serving = &shrunk
		}
	}
	return spec
}

// multiProxyServingSpec is the explicit multi-proxy open-loop case: two
// proxies per node under each scheduling policy, heavy enough load that
// proxies actually contend (and, under steal, actually steal).
func multiProxyServingSpec(sched string) Spec {
	return Spec{
		Name: "diff-multiproxy-" + sched, Kind: KindServing,
		Archs:           []string{"MP1"},
		Topology:        Topology{Nodes: 8, Proxies: 2, ProxySched: sched},
		CommandQueueCap: 64,
		Serving: &ServingSpec{
			Topo: "fat-tree", Clients: 2,
			Requests: 800, Warmup: 100,
			LoadUs: []float64{160, 40},
		},
	}
}

// TestDifferentialPresets renders every published preset once and holds
// its output bytes to the reference implementation's, recorded in
// testdata/preset_digests.json (see digestsFile). The regress suite pins
// the raw event streams; this test pins the other end of the stack:
// every table, sweep and profile the repository publishes.
func TestDifferentialPresets(t *testing.T) {
	for _, name := range PresetNames() {
		t.Run(name, func(t *testing.T) {
			p, err := PresetByName(name)
			if err != nil {
				t.Fatal(err)
			}
			checkDigest(t, name, diffScale(p.Spec))
		})
	}
}

// TestDifferentialMultiProxyServing pins the proxy-scheduling layer where
// it matters most: multi-proxy nodes under every policy, including the
// work-stealing path whose scan turns hop between sibling proxies, must
// render the reference implementation's bytes.
func TestDifferentialMultiProxyServing(t *testing.T) {
	for _, sched := range []string{"static", "shard", "steal"} {
		t.Run(sched, func(t *testing.T) {
			spec := multiProxyServingSpec(sched)
			checkDigest(t, spec.Name, spec)
		})
	}
}

// runWithShards renders the spec at the requested shard count, returning
// the manifest and the full output bytes.
func runWithShards(t *testing.T, spec Spec, shards int) (Manifest, []byte) {
	t.Helper()
	spec.Topology.SimShards = shards
	var buf bytes.Buffer
	mf, err := Run(spec, &buf)
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	return mf, buf.Bytes()
}

// parDiffSpecs collects the sharded-execution differential corpus: every
// parallel-eligible preset (shrunk like the digest sweep) plus the
// explicit multi-proxy cases under each scheduling policy.
func parDiffSpecs(t *testing.T) []Spec {
	var specs []Spec
	for _, name := range PresetNames() {
		p, err := PresetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if ok, _ := ParallelEligible(p.Spec); !ok {
			continue
		}
		specs = append(specs, diffScale(p.Spec))
	}
	if len(specs) == 0 {
		t.Fatal("no parallel-eligible presets: the [par] surface is dead")
	}
	for _, sched := range []string{"static", "shard", "steal"} {
		specs = append(specs, multiProxyServingSpec(sched))
	}
	return specs
}

// TestDifferentialParSequential holds sharded execution to the
// sequential render across the whole published surface: for every
// parallel-eligible preset and every proxy-scheduling policy, the
// output bytes AND the manifest must be identical at 1, 2 and 8 shards
// to the sequential run. TestPresetDigests pins the sequential bytes
// themselves, so one engine and P engines both reproduce the recorded
// reference.
func TestDifferentialParSequential(t *testing.T) {
	for _, spec := range parDiffSpecs(t) {
		t.Run(spec.Name, func(t *testing.T) {
			seqMF, seqOut := runWithShards(t, spec, 0)
			for _, shards := range []int{1, 2, 8} {
				mf, out := runWithShards(t, spec, shards)
				if !bytes.Equal(out, seqOut) {
					t.Errorf("shards=%d output diverges: %d bytes (sha %s) vs sequential %d bytes (sha %s)",
						shards, len(out), mf.OutputSHA256, len(seqOut), seqMF.OutputSHA256)
				}
				if mf != seqMF {
					t.Errorf("shards=%d manifest diverges:\n  par %+v\n  seq %+v", shards, mf, seqMF)
				}
			}
		})
	}
}

// TestParallelRepeatRunDigest pins run-to-run determinism of the
// sharded executor at the scenario surface: with OS threads racing
// freely (and under -race, with the detector watching the cross-shard
// edges), two 8-shard runs must digest identically.
func TestParallelRepeatRunDigest(t *testing.T) {
	spec := multiProxyServingSpec("steal")
	first, firstOut := runWithShards(t, spec, 8)
	second, secondOut := runWithShards(t, spec, 8)
	if !bytes.Equal(firstOut, secondOut) || first != second {
		t.Fatalf("8-shard repeat run diverges:\n  first  %+v\n  second %+v", first, second)
	}
}

// TestParallelIneligibleFallsBack pins the warn-and-fall-back contract:
// a spec that cannot shard (here: the forensics recorder is engine-
// global) still runs — sequentially — and produces exactly the bytes
// and manifest of the unsharded run.
func TestParallelIneligibleFallsBack(t *testing.T) {
	p, err := PresetByName("serving-smoke-forensics")
	if err != nil {
		t.Fatal(err)
	}
	spec := diffScale(p.Spec)
	spec.Obs.Forensics = t.TempDir()
	seqMF, seqOut := runWithShards(t, spec, 0)
	parMF, parOut := runWithShards(t, spec, 8)
	if !bytes.Equal(seqOut, parOut) || seqMF != parMF {
		t.Fatalf("fallback diverges from sequential:\n  seq %+v\n  par %+v", seqMF, parMF)
	}
}

// TestStealRepeatRunDigest pins the stealing policy's run-to-run
// determinism: the victim order is a pure function of (node, steal
// count), so two runs of the same spec must digest identically — any
// map iteration or pointer-keyed ordering sneaking into the steal path
// would flip the manifest hash between repeats.
func TestStealRepeatRunDigest(t *testing.T) {
	spec := multiProxyServingSpec("steal")
	var first Manifest
	for rep := 0; rep < 2; rep++ {
		var buf bytes.Buffer
		mf, err := Run(spec, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if rep == 0 {
			first = mf
			continue
		}
		if mf != first {
			t.Fatalf("repeat run diverges:\n  first  %+v\n  second %+v", first, mf)
		}
	}
}

// TestDifferentialFigure8SharedReferences runs Figure 8's whole
// application list at test scale on two workers and on one: the cells
// share their programs' serial references (apps.Reference) across
// concurrently running engines, and the rendered bytes must not depend
// on the worker count. Under -race the detector watches the shared
// references.
func TestDifferentialFigure8SharedReferences(t *testing.T) {
	p, err := PresetByName("figure8")
	if err != nil {
		t.Fatal(err)
	}
	spec := p.Spec
	spec.Scale = "test"
	render := func(jobs int) []byte {
		s := spec
		s.Jobs = jobs
		var buf bytes.Buffer
		if _, err := Run(s, &buf); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return buf.Bytes()
	}
	if two, one := render(2), render(1); !bytes.Equal(two, one) {
		t.Fatalf("jobs=2 renders %d bytes, jobs=1 %d: the shared references changed a result", len(two), len(one))
	}
}
