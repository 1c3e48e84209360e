package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/graph"
	"repro/internal/library"
	"repro/internal/partition"
)

// verdict is a hand-recorded answer: whether the instance has a
// solution, whether the solver proves its verdict, and the optimal
// communication cost of a feasible instance.
type verdict struct {
	Feasible bool `json:"feasible"`
	Optimal  bool `json:"optimal"`
	Comm     int  `json:"comm"`
}

// expected is expected.json: the verdict of every suite and paper
// instance by name, and of every α point of the service ladders by
// graph and α.
type expected struct {
	Suite  map[string]verdict            `json:"suite"`
	Paper  map[string]verdict            `json:"paper"`
	Ladder map[string]map[string]verdict `json:"ladder"`
}

//go:embed expected.json
var expectedJSON []byte

// alphas is the α ladder of the service workloads, ascending: each step
// tightens the capacity row, so a batch chain of it takes the cold, warm
// and reuse paths of the delta engine.
var alphas = []float64{0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0}

func alphaKey(a float64) string { return strconv.FormatFloat(a, 'g', -1, 64) }

// loadExpected decodes an expected file and checks that it holds exactly
// one verdict for each named suite and paper instance and each ladder
// point of each named graph, and that every verdict is proved.
func loadExpected(data []byte, suite, paper, ladders []string) (*expected, error) {
	var e expected
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		return nil, fmt.Errorf("expected verdicts: %w", err)
	}
	if err := checkKeys("suite", e.Suite, suite); err != nil {
		return nil, err
	}
	if err := checkKeys("paper", e.Paper, paper); err != nil {
		return nil, err
	}
	if len(e.Ladder) != len(ladders) {
		return nil, fmt.Errorf("expected verdicts: %d ladders, want %d", len(e.Ladder), len(ladders))
	}
	var keys []string
	for _, a := range alphas {
		keys = append(keys, alphaKey(a))
	}
	for _, g := range ladders {
		if err := checkKeys("ladder "+g, e.Ladder[g], keys); err != nil {
			return nil, err
		}
	}
	return &e, nil
}

func checkKeys(what string, got map[string]verdict, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("expected verdicts: %s has %d entries, want %d", what, len(got), len(want))
	}
	for _, k := range want {
		v, ok := got[k]
		switch {
		case !ok:
			return fmt.Errorf("expected verdicts: %s lacks %q", what, k)
		case !v.Optimal:
			return fmt.Errorf("expected verdicts: %s %q is not a proved verdict", what, k)
		case !v.Feasible && v.Comm != 0:
			return fmt.Errorf("expected verdicts: %s %q is infeasible but has comm %d", what, k, v.Comm)
		}
	}
	return nil
}

// answer is a solver's reply in the terms the expected file records.
type answer struct {
	feasible, optimal bool
	sol               *partition.Solution
}

// check compares an answer with the verdict and re-checks a returned
// solution against every constraint with partition.Verify.
func (v verdict) check(a answer, g *graph.Graph, alloc *library.Allocation, dev library.Device, l int) error {
	if a.feasible != v.Feasible || a.optimal != v.Optimal {
		return fmt.Errorf("verdict feasible=%v optimal=%v, want feasible=%v optimal=%v",
			a.feasible, a.optimal, v.Feasible, v.Optimal)
	}
	if !v.Feasible {
		if a.sol != nil {
			return fmt.Errorf("infeasible verdict carries a solution")
		}
		return nil
	}
	if a.sol == nil {
		return fmt.Errorf("feasible verdict without a solution")
	}
	if a.sol.Comm != v.Comm {
		return fmt.Errorf("comm %d, want %d", a.sol.Comm, v.Comm)
	}
	if err := partition.Verify(g, alloc, dev, a.sol, partition.VerifyOptions{L: l}); err != nil {
		return fmt.Errorf("solution fails verification: %w", err)
	}
	return nil
}
