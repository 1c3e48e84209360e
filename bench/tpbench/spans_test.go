package main

import (
	"math"
	"testing"
)

func sp(id, parent, name string, start, end float64) span {
	return span{Trace: "t", ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func checkSelf(t *testing.T, spans []span, want map[string]float64) {
	t.Helper()
	self := selfTimes(spans)
	sum, root := 0.0, 0.0
	for i, s := range spans {
		sum += self[i]
		if !hasID(spans, s.Parent) {
			root += s.End - s.Start
		}
		if math.Abs(self[i]-want[s.ID]) > 1e-9 {
			t.Errorf("self(%s) = %g, want %g", s.ID, self[i], want[s.ID])
		}
	}
	if math.Abs(sum-root) > 1e-9 {
		t.Errorf("self times sum to %g, root spans last %g", sum, root)
	}
}

// Nested spans: a span's self time is its duration minus the union of
// its children's intervals.
func TestSelfTimesNested(t *testing.T) {
	checkSelf(t, []span{
		sp("r", "", "tpbench.instance", 0, 10),
		sp("a", "r", "build", 2, 5),
		sp("a1", "a", "x", 3, 4),
		sp("b", "r", "search", 6, 8),
	}, map[string]float64{"r": 5, "a": 2, "a1": 1, "b": 2})
}

// Overlapping working siblings share the overlap equally, so it counts
// once.
func TestSelfTimesOverlapSplits(t *testing.T) {
	checkSelf(t, []span{
		sp("r", "", "tpbench.ladder", 0, 10),
		sp("x", "r", "request", 0, 6),
		sp("y", "r", "request", 4, 10),
	}, map[string]float64{"r": 0, "x": 5, "y": 5})
}

// A batch chain: job 2 waits in its queue span while job 1 solves, so
// that time is job 1's; job 2's wait counts once job 1 is done.
func TestSelfTimesQueueYieldsToWork(t *testing.T) {
	checkSelf(t, []span{
		sp("r", "", "tpbench.ladder", 0, 12),
		sp("j1", "r", "request", 0, 6),
		sp("s1", "j1", "solve", 0, 6),
		sp("j2", "r", "request", 0, 12),
		sp("q2", "j2", "queue", 0, 7),
		sp("s2", "j2", "solve", 7, 12),
	}, map[string]float64{"s1": 6, "q2": 1, "s2": 5})
}

// Time outside every root span belongs to no one, and a span whose
// parent is missing is a root of its own.
func TestSelfTimesRoots(t *testing.T) {
	checkSelf(t, []span{
		sp("a", "", "request", 0, 2),
		sp("b", "gone", "request", 5, 6),
		sp("c", "b", "queue", 5, 6),
	}, map[string]float64{"a": 2, "c": 1})
}

func TestLayerSumsSearchSplit(t *testing.T) {
	ls := newLayerSums()
	spans := []span{
		sp("r", "", "tpbench.instance", 0, 10),
		sp("b", "r", "build", 0, 1),
		sp("s", "r", "tpbench.solve", 1, 10),
		sp("root", "s", "root-lp", 1, 2),
		sp("x", "s", "search", 2, 10),
	}
	ls.add(spans, func(self []float64, by map[string]float64) {
		by["milp.search"] -= 6
		by["lp.solve"] += 6
	})
	m := map[string]float64{}
	ls.report(m)
	for name, want := range map[string]float64{
		"core.build_pct": 10, "core.solve_pct": 0, "lp.solve_pct": 70, "milp.search_pct": 20,
	} {
		if math.Abs(m[name]-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, m[name], want)
		}
	}
}
