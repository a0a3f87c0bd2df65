package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"

	"mproxy/internal/scenario"
)

//go:embed workloads/*.json digests.json
var files embed.FS

// workloadNames lists the workloads in the order a set interleaves their
// reps. Each one's spec is workloads/<name>.json; BENCHMARK.json and the
// README say why each is there.
var workloadNames = []string{"serve-1k", "serve-hot16", "paper-fig8"}

// figure8Results is the blessed table paper-fig8 must reproduce byte for
// byte, relative to the repository root the benchmark runs from.
const figure8Results = "results/figure8.txt"

// loadSpec returns the named workload's spec with the run's seed, which
// keys the open-loop arrival, key and op streams. The Figure 8
// applications generate their inputs from fixed seeds, so the seed does
// not change paper-fig8's output.
func loadSpec(name string, seed uint64) (scenario.Spec, error) {
	data, err := files.ReadFile("workloads/" + name + ".json")
	if err != nil {
		return scenario.Spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	s, err := scenario.ParseJSON(data)
	if err != nil {
		return scenario.Spec{}, fmt.Errorf("workload %s: %w", name, err)
	}
	s.Fault.Seed = seed
	return s, nil
}

// expectedDigests returns the digests every rep of the named workload must
// reproduce: the blessed Figure 8 table for paper-fig8, the pinned digests
// for the serving workloads at seed 1, and nil otherwise, in which case
// the first rep's digests become the reference the others must match.
func expectedDigests(name string, seed uint64) (map[string]string, error) {
	if name == "paper-fig8" {
		b, err := os.ReadFile(figure8Results)
		if err != nil {
			return nil, fmt.Errorf("paper-fig8 checks its output against %s; run from the repository root: %w", figure8Results, err)
		}
		return map[string]string{"output": digest(b)}, nil
	}
	if seed != 1 {
		return nil, nil
	}
	data, err := files.ReadFile("digests.json")
	if err != nil {
		return nil, err
	}
	var pinned map[string]map[string]string
	if err := json.Unmarshal(data, &pinned); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return pinned[name], nil
}
