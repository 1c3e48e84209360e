package experiments

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/library"
	"repro/internal/lp"
	"repro/internal/randgraph"
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

// modelDigests builds every row of every table and ablation and every
// MILPBench instance, and digests each model as built and after the LP
// presolve, which no row enables itself.
func modelDigests(t testing.TB) []string {
	t.Helper()
	var out []string
	add := func(label string, inst core.Instance, opt core.Options) {
		m, err := core.Build(inst, opt)
		if err != nil {
			out = append(out, label+"\tbuild error: "+err.Error())
			return
		}
		out = append(out, modelDigest(label, m.P))
		m.Opt.Presolve = true
		m.ApplyPresolve()
		out = append(out, modelDigest(label+" presolved", m.P))
	}
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
			add(r.Label, core.Instance{Graph: g, Alloc: alloc, Device: Device()}, opt)
		}
	}
	entries, err := MILPBench()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		add(e.Name, e.Inst, e.Opt)
	}
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
