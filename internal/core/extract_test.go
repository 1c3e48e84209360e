package core

import (
	"strings"
	"testing"
)

// extractFixture builds the smoke model plus a known-good integral
// decision vector: all three tasks on partition 1, the chain scheduled
// a@1 (add16), b@2 (mul16), c@3 (add16).
func extractFixture(t *testing.T) (*Model, []float64) {
	t.Helper()
	m, err := Build(smokeInstance(t), Options{N: 2, L: 1, Tightened: true})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, m.Stats().Vars)
	setY := func(task, p int) {
		x[m.y(task, p)] = 1
	}
	setX := func(op, step, unit int) {
		col := m.x(op, step, unit)
		if col < 0 {
			t.Fatalf("no x column for op %d step %d unit %d", op, step, unit)
		}
		x[col] = 1
	}
	for task := 0; task < 3; task++ {
		setY(task, 1)
	}
	setX(0, 1, 0)
	setX(1, 2, 1)
	setX(2, 3, 0)
	return m, x
}

// TestExtractGoodVector: the fixture vector itself must extract and
// verify — the corruption cases below then isolate one defect each.
func TestExtractGoodVector(t *testing.T) {
	m, x := extractFixture(t)
	sol, err := m.Extract(x)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Comm != 0 || sol.UsedPartitions() != 1 {
		t.Fatalf("unexpected solution: %+v", sol)
	}
}

// TestExtractRejectsCorruptVectors: Extract is the audit between the
// float MILP verdict and the partition.Solution handed to callers;
// each corruption class must be rejected with its own classification,
// never silently repaired.
func TestExtractRejectsCorruptVectors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(t *testing.T, m *Model, x []float64)
		want   string
	}{
		{"task assigned twice", func(t *testing.T, m *Model, x []float64) {
			x[m.y(0, 2)] = 1
		}, "task 0 assigned twice"},
		{"task unassigned", func(t *testing.T, m *Model, x []float64) {
			x[m.y(1, 1)] = 0
		}, "task 1 unassigned"},
		{"op assigned twice", func(t *testing.T, m *Model, x []float64) {
			col := m.x(0, 2, 0)
			if col < 0 {
				t.Fatal("no second placement column for op 0")
			}
			x[col] = 1
		}, "op 0 assigned twice"},
		{"op unassigned", func(t *testing.T, m *Model, x []float64) {
			x[m.x(2, 3, 0)] = 0
		}, "op 2 unassigned"},
		{"schedule fails verification", func(t *testing.T, m *Model, x []float64) {
			// move a to step 2: inside its widened window, but then a@2
			// cannot precede b@2 — Verify must catch it and Extract must
			// wrap, not swallow, the classification
			x[m.x(0, 1, 0)] = 0
			col := m.x(0, 2, 0)
			if col < 0 {
				t.Fatal("no step-2 column for op 0")
			}
			x[col] = 1
		}, "failed verification"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, x := extractFixture(t)
			tc.mutate(t, m, x)
			sol, err := m.Extract(x)
			if err == nil {
				t.Fatalf("corrupt vector extracted: %+v", sol)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error class drifted:\n  got  %q\n  want substring %q", err, tc.want)
			}
		})
	}
}
