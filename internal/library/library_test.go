package library

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestNewLibraryValidation(t *testing.T) {
	if _, err := NewLibrary(FUType{Name: "", Ops: []graph.OpKind{graph.OpAdd}, FG: 1}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewLibrary(Add16(), Add16()); err == nil {
		t.Error("duplicate type accepted")
	}
	if _, err := NewLibrary(FUType{Name: "x", FG: 1}); err == nil {
		t.Error("no-op type accepted")
	}
	if _, err := NewLibrary(FUType{Name: "x", Ops: []graph.OpKind{graph.OpAdd}, FG: 0}); err == nil {
		t.Error("zero FG accepted")
	}
}

func TestLibraryLatencyDefaultsToOne(t *testing.T) {
	lib := MustLibrary(FUType{Name: "x", Ops: []graph.OpKind{graph.OpAdd}, FG: 4})
	ft, ok := lib.Type("x")
	if !ok || ft.Latency != 1 {
		t.Fatalf("latency = %d, want 1", ft.Latency)
	}
}

func TestDefaultLibraryKinds(t *testing.T) {
	for kind, want := range map[graph.OpKind]int{graph.OpMul: 3, "weird": 0} {
		got := 0
		for _, ft := range DefaultLibrary().types {
			if ft.CanExecute(kind) {
				got++
			}
		}
		if got != want {
			t.Errorf("%d default types execute %s, want %d", got, kind, want)
		}
	}
}

func TestAllocation(t *testing.T) {
	lib := DefaultLibrary()
	a, err := PaperAllocation(lib, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumUnits() != 5 {
		t.Fatalf("units = %d, want 5", a.NumUnits())
	}
	// Deterministic ordering: add16#0, add16#1, mul16#0, mul16#1, sub16#0.
	wantNames := []string{"add16#0", "add16#1", "mul16#0", "mul16#1", "sub16#0"}
	for i, w := range wantNames {
		if a.Unit(i).Name != w {
			t.Errorf("unit %d = %s, want %s", i, a.Unit(i).Name, w)
		}
		if a.Unit(i).ID != i {
			t.Errorf("unit %d has ID %d", i, a.Unit(i).ID)
		}
	}
	adders := a.UnitsFor(graph.OpAdd)
	if len(adders) != 2 || adders[0] != 0 || adders[1] != 1 {
		t.Fatalf("UnitsFor(add) = %v", adders)
	}
	if got := a.String(); got != "2xadd16+2xmul16+1xsub16" {
		t.Fatalf("String = %q", got)
	}
	if fg := a.TotalFG(); fg != 2*16+2*96+16 {
		t.Fatalf("TotalFG = %d", fg)
	}
}

func TestAllocationErrors(t *testing.T) {
	lib := DefaultLibrary()
	if _, err := NewAllocation(lib, map[string]int{"nope": 1}); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := NewAllocation(lib, map[string]int{"add16": -1}); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := NewAllocation(lib, map[string]int{}); err == nil {
		t.Error("empty allocation accepted")
	}
}

func TestAllocationCovers(t *testing.T) {
	lib := DefaultLibrary()
	a, _ := PaperAllocation(lib, 1, 1, 0)
	g := graph.New("g")
	tk := g.AddTask("")
	g.AddOp(tk, graph.OpSub, "")
	if k, ok := a.Covers(g); ok || k != graph.OpSub {
		t.Fatalf("Covers = (%v,%v), want (sub,false)", k, ok)
	}
}

func TestDevice(t *testing.T) {
	d := XC4010()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if !d.Fits(100) {
		t.Error("100 FG should fit in xc4010 at alpha 0.7")
	}
	// alpha*sum = 0.7*250 = 175 > 160
	if d.Fits(250) {
		t.Error("250 FG should not fit")
	}
	bad := Device{Name: "bad", CapacityFG: 0, Alpha: 0.5}
	if err := bad.Validate(); err == nil {
		t.Error("zero capacity accepted")
	}
	bad = Device{Name: "bad", CapacityFG: 10, Alpha: 1.5}
	if err := bad.Validate(); err == nil {
		t.Error("alpha > 1 accepted")
	}
	bad = Device{Name: "bad", CapacityFG: 10, Alpha: 0.5, ScratchMem: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative scratch accepted")
	}
}

func TestAddSubServesBothKinds(t *testing.T) {
	lib := DefaultLibrary()
	a, err := NewAllocation(lib, map[string]int{"addsub16": 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.UnitsFor(graph.OpAdd)) != 1 || len(a.UnitsFor(graph.OpSub)) != 1 {
		t.Fatal("addsub16 should serve add and sub")
	}
}

func TestDefaultLibraryNamesSorted(t *testing.T) {
	lib := DefaultLibrary()
	types := lib.types
	for i := 1; i < len(types); i++ {
		if !(types[i-1].Name < types[i].Name) {
			t.Fatalf("types not sorted: %s before %s", types[i-1].Name, types[i].Name)
		}
	}
	if !strings.Contains(types[0].Name, "add") {
		t.Errorf("first type = %s", types[0].Name)
	}
}
