package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/library"
	"repro/internal/lp"
	"repro/internal/randgraph"
	"repro/internal/trace"
)

// writeProblem writes p at full precision: every column's name, the
// bits of its objective and bounds, and every row's name, range bits
// and (column, value bits) entries.
func writeProblem(w io.Writer, p *lp.Problem) {
	for j := 0; j < p.NumVars(); j++ {
		lo, hi := p.Bounds(j)
		fmt.Fprintf(w, "v %d %s %x %x %x\n", j, p.VarName(j),
			math.Float64bits(p.Obj(j)), math.Float64bits(lo), math.Float64bits(hi))
	}
	for i := 0; i < p.NumRows(); i++ {
		idx, val := p.Row(i)
		lo, hi := p.RowRange(i)
		fmt.Fprintf(w, "r %d %s %x %x", i, p.RowName(i), math.Float64bits(lo), math.Float64bits(hi))
		for k, j := range idx {
			fmt.Fprintf(w, " %d:%x", j, math.Float64bits(val[k]))
		}
		fmt.Fprintln(w)
	}
}

// modelDigest summarizes p as "label vars rows nnz digest", the digest
// an FNV-64a hash of writeProblem's output.
func modelDigest(label string, p *lp.Problem) string {
	h := fnv.New64a()
	writeProblem(h, p)
	st := p.Stats()
	return fmt.Sprintf("%s\t%d\t%d\t%d\t%016x", label, st.Vars, st.Rows, st.NNZ, h.Sum64())
}

// forEachModel calls fn with every row of every table and ablation and
// every MILPBench instance.
func forEachModel(t testing.TB, fn func(label string, inst core.Instance, opt core.Options)) {
	t.Helper()
	for _, name := range []string{"1", "2", "3", "4", "lin", "branching", "tighten"} {
		for _, r := range Tables[name]() {
			g, err := randgraph.Paper(r.GraphNum)
			if err != nil {
				t.Fatal(err)
			}
			alloc, err := library.PaperAllocation(library.DefaultLibrary(), r.A, r.M, r.S)
			if err != nil {
				t.Fatal(err)
			}
			opt := r.Opt
			opt.N, opt.L = r.N, r.L
			fn(r.Label, core.Instance{Graph: g, Alloc: alloc, Device: Device()}, opt)
		}
	}
	entries, err := MILPBench()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		fn(e.Name, e.Inst, e.Opt)
	}
}

// modelDigests digests every model of forEachModel as built and after
// the LP presolve, which no row enables itself.
func modelDigests(t testing.TB) []string {
	t.Helper()
	var out []string
	forEachModel(t, func(label string, inst core.Instance, opt core.Options) {
		m, err := core.Build(inst, opt)
		if err != nil {
			out = append(out, label+"\tbuild error: "+err.Error())
			return
		}
		out = append(out, modelDigest(label, m.LP()))
		m.Opt.Presolve = true
		m.ApplyPresolve()
		out = append(out, modelDigest(label+" presolved", m.LP()))
	})
	return out
}

// TestModelDigests pins every generated model bit for bit: names,
// bounds, objective, each row's columns, values and range, before and
// after presolve. testdata/model_digests.txt was recorded from the
// string-named, row-slice problem store the keyed flat store replaced.
func TestModelDigests(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "model_digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	got := modelDigests(t)
	if len(got) != len(want) {
		t.Fatalf("%d models, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("model differs:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

// modelEvents collects the model events of a build.
type modelEvents []trace.Event

func (l *modelEvents) Emit(e trace.Event) {
	if e.Kind == trace.KindModel {
		*l = append(*l, e)
	}
}

// emittedFamilies tallies p's rows and nonzeros per constraint family,
// sorted by name.
func emittedFamilies(p *lp.Problem) []trace.Family {
	var out []trace.Family
	for i := 0; i < p.NumRows(); i++ {
		name := p.RowKey(i).Family()
		k := slices.IndexFunc(out, func(f trace.Family) bool { return f.Name == name })
		if k < 0 {
			out = append(out, trace.Family{Name: name})
			k = len(out) - 1
		}
		idx, _ := p.Row(i)
		out[k].Rows++
		out[k].NNZ += len(idx)
	}
	slices.SortFunc(out, func(a, b trace.Family) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// checkCounted builds inst under opt and compares what Build counted —
// Stats and the model event's size and families — with the LP it
// emits on first read, which it returns (nil when Build fails).
func checkCounted(t *testing.T, label string, inst core.Instance, opt core.Options) *lp.Problem {
	t.Helper()
	var events modelEvents
	opt.Trace = trace.New(&events)
	m, err := core.Build(inst, opt)
	if err != nil {
		return nil // TestModelDigests pins the error
	}
	if len(events) != 1 {
		t.Fatalf("%s: %d model events, want 1", label, len(events))
	}
	p := m.LP()
	e, st := events[0], p.Stats()
	if m.Stats() != st || e.Vars != st.Vars || e.Rows != st.Rows || e.NNZ != st.NNZ {
		t.Errorf("%s: counted %+v, model event %d/%d/%d, emitted %+v", label, m.Stats(), e.Vars, e.Rows, e.NNZ, st)
	}
	if want := emittedFamilies(p); !slices.Equal(e.Families, want) {
		t.Errorf("%s: counted families\n%v\nemitted\n%v", label, e.Families, want)
	}
	return p
}

// TestModelCountsMatchEmission: for every model TestModelDigests pins,
// Build's count of the rows — the model size Stats reports and the
// per-family rows and nonzeros of the model event — is the size of the
// LP the first read emits. The instance with a zero-bandwidth task
// edge checks that the count normalizes rows as AddRow does: the
// memory row of eq. (3) lists that edge's w with coefficient 0, which
// AddRow drops. On the digest models a count of the rows as given
// would agree with the emitted LP too.
func TestModelCountsMatchEmission(t *testing.T) {
	forEachModel(t, func(label string, inst core.Instance, opt core.Options) {
		checkCounted(t, label, inst, opt)
	})

	g := graph.New("zero-bandwidth")
	t0, t1, t2 := g.AddTask("t0"), g.AddTask("t1"), g.AddTask("t2")
	g.AddOp(t0, graph.OpAdd, "a")
	b := g.AddOp(t1, graph.OpAdd, "b")
	c := g.AddOp(t2, graph.OpMul, "c")
	g.AddTaskEdge(t0, t1, 0) // orders the tasks, carries no data
	g.Connect(b, c, 3)
	alloc, err := library.PaperAllocation(library.DefaultLibrary(), 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := checkCounted(t, g.Name, core.Instance{Graph: g, Alloc: alloc, Device: Device()}, core.Options{N: 2, L: 1, Tightened: true})
	if p == nil {
		t.Fatal("the zero-bandwidth instance does not build")
	}
	for i := 0; i < p.NumRows(); i++ {
		if p.RowKey(i).Family() == "mem" {
			if idx, _ := p.Row(i); len(idx) != 1 {
				t.Fatalf("memory row %s keeps %d entries, want the nonzero one", p.RowName(i), len(idx))
			}
			return
		}
	}
	t.Fatal("no memory row")
}

// TestSuiteRowEmitsLPOnce: a suite row, which branch and bound solves,
// emits its LP exactly once, under a build span carrying the counted
// size, next to the span of Build's count.
func TestSuiteRowEmitsLPOnce(t *testing.T) {
	entries, err := MILPBench()
	if err != nil {
		t.Fatal(err)
	}
	e := entries[0]
	sc := trace.NewSpans("")
	root := sc.Root("test")
	opt := e.Opt
	opt.Span = root
	m, err := core.Build(e.Inst, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.SolveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.Nodes == 0 {
		t.Fatalf("%s: optimal=%v nodes=%d, want a branch-and-bound verdict", e.Name, res.Optimal, res.Nodes)
	}
	st := m.Stats()
	var builds int
	for _, s := range sc.Snapshot() {
		if s.Name != "build" {
			continue
		}
		builds++
		if s.Num["vars"] != float64(st.Vars) || s.Num["rows"] != float64(st.Rows) || s.Num["nnz"] != float64(st.NNZ) {
			t.Errorf("build span reports %v, counted %+v", s.Num, st)
		}
	}
	if builds != 2 {
		t.Fatalf("%d build spans, want Build's and one emission", builds)
	}
}
