// Package library models the characterized component library and the
// target reconfigurable device of Kaul & Vemuri (DATE 1998, Section 3).
//
// The library holds functional-unit (FU) types characterized by the
// operations they execute, their latency in control steps and their
// FPGA resource footprint in function generators (FG). A design
// exploration instantiates a multiset of FU instances (the set F of the
// paper, e.g. "2 adders + 2 multipliers + 1 subtracter"); the optimizer
// decides which instances are actually used in each temporal segment.
package library

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
)

// FUType is a characterized functional-unit type from the component
// library.
type FUType struct {
	// Name identifies the type, e.g. "add16" or "mul16p".
	Name string
	// Ops is the set of operation kinds this FU type can execute.
	Ops []graph.OpKind
	// FG is the number of FPGA function generators consumed by one
	// instance (the FG(k) metric of the paper).
	FG int
	// Latency is the number of control steps an operation occupies on
	// this FU. The base paper model assumes 1; the multicycle extension
	// honors larger values.
	Latency int
	// Pipelined marks pipelined FUs: with Latency > 1 a pipelined FU
	// can accept a new operation every control step, a non-pipelined
	// one only every Latency steps.
	Pipelined bool
	// DelayNS is the characterized combinational delay, used by the
	// runtime model in rpsim to derive the clock period.
	DelayNS float64
}

// CanExecute reports whether the FU type executes operation kind k.
func (ft FUType) CanExecute(k graph.OpKind) bool {
	for _, o := range ft.Ops {
		if o == k {
			return true
		}
	}
	return false
}

// FU is one concrete functional-unit instance in the design exploration
// set F. Instances are what operations bind to (x_ijk) and what
// partitions account area for (u_pk).
type FU struct {
	// ID indexes the instance within the allocation, dense 0..|F|-1.
	ID int
	// Name is "<type>#<n>" and unique within the allocation.
	Name string
	// Type is the characterized FU type.
	Type FUType
}

// Library is a set of FU types indexed by name.
type Library struct {
	types []FUType
}

// NewLibrary builds a library from the given types. Type names must be
// unique and each type must execute at least one operation kind, have
// positive FG cost and latency.
func NewLibrary(types ...FUType) (*Library, error) {
	seen := map[string]bool{}
	lib := &Library{}
	for _, ft := range types {
		if ft.Name == "" {
			return nil, fmt.Errorf("library: FU type with empty name")
		}
		if seen[ft.Name] {
			return nil, fmt.Errorf("library: duplicate FU type %q", ft.Name)
		}
		if len(ft.Ops) == 0 {
			return nil, fmt.Errorf("library: FU type %q executes no operations", ft.Name)
		}
		if ft.FG <= 0 {
			return nil, fmt.Errorf("library: FU type %q has non-positive FG cost", ft.Name)
		}
		if ft.Latency <= 0 {
			ft.Latency = 1
		}
		seen[ft.Name] = true
		lib.types = append(lib.types, ft)
	}
	sort.Slice(lib.types, func(i, j int) bool { return lib.types[i].Name < lib.types[j].Name })
	return lib, nil
}

// MustLibrary is NewLibrary that panics on error; for package-level
// defaults and tests.
func MustLibrary(types ...FUType) *Library {
	lib, err := NewLibrary(types...)
	if err != nil {
		panic(err)
	}
	return lib
}

// Type returns the FU type with the given name.
func (l *Library) Type(name string) (FUType, bool) {
	for _, ft := range l.types {
		if ft.Name == name {
			return ft, true
		}
	}
	return FUType{}, false
}

// Allocation is the exploration set F: a list of FU instances the
// optimizer may use. Not all instances need to fit on the device
// simultaneously; the per-partition resource constraint (eq. 11) is
// enforced over the instances actually used in each segment.
type Allocation struct {
	units []FU
}

// NewAllocation instantiates count[i] instances of each type, in the
// (typeName -> count) map given. Instance IDs are assigned in sorted
// type-name order, so allocations are deterministic.
func NewAllocation(lib *Library, counts map[string]int) (*Allocation, error) {
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	a := &Allocation{}
	for _, n := range names {
		ft, ok := lib.Type(n)
		if !ok {
			return nil, fmt.Errorf("library: allocation references unknown FU type %q", n)
		}
		if counts[n] < 0 {
			return nil, fmt.Errorf("library: negative count for FU type %q", n)
		}
		for i := 0; i < counts[n]; i++ {
			a.units = append(a.units, FU{
				ID:   len(a.units),
				Name: fmt.Sprintf("%s#%d", n, i),
				Type: ft,
			})
		}
	}
	if len(a.units) == 0 {
		return nil, fmt.Errorf("library: empty allocation")
	}
	return a, nil
}

// Units returns the FU instances in ID order. Callers must not mutate
// the returned slice.
func (a *Allocation) Units() []FU { return a.units }

// NumUnits returns |F|.
func (a *Allocation) NumUnits() int { return len(a.units) }

// Unit returns the FU instance with the given ID.
func (a *Allocation) Unit(id int) FU { return a.units[id] }

// UnitsFor returns the IDs of instances able to execute kind k — the
// Fu(i) set of the paper for an operation of kind k.
func (a *Allocation) UnitsFor(k graph.OpKind) []int {
	var out []int
	for _, u := range a.units {
		if u.Type.CanExecute(k) {
			out = append(out, u.ID)
		}
	}
	return out
}

// Covers reports whether every op kind in g has at least one unit,
// returning the first uncovered kind otherwise.
func (a *Allocation) Covers(g *graph.Graph) (graph.OpKind, bool) {
	for _, k := range g.OpKinds() {
		if len(a.UnitsFor(k)) == 0 {
			return k, false
		}
	}
	return "", true
}

// TotalFG returns the FG footprint if all instances were used at once.
func (a *Allocation) TotalFG() int {
	s := 0
	for _, u := range a.units {
		s += u.Type.FG
	}
	return s
}

// String renders the allocation as "2xadd16+1xmul16" style.
func (a *Allocation) String() string {
	counts := map[string]int{}
	var order []string
	for _, u := range a.units {
		if counts[u.Type.Name] == 0 {
			order = append(order, u.Type.Name)
		}
		counts[u.Type.Name]++
	}
	sort.Strings(order)
	parts := make([]string, 0, len(order))
	for _, n := range order {
		parts = append(parts, fmt.Sprintf("%dx%s", counts[n], n))
	}
	return strings.Join(parts, "+")
}

// Device models the target reconfigurable processor: the resource
// capacity C of the FPGA, the logic-optimization factor alpha applied
// to summed FG costs (eq. 11), the scratch memory size Ms available
// between segments (eq. 3), and the reconfiguration overhead used by
// the runtime model.
type Device struct {
	// Name labels the device in reports, e.g. "xc4010".
	Name string
	// CapacityFG is C: the number of function generators available.
	CapacityFG int
	// Alpha is the user-defined logic-optimization factor in (0,1];
	// the paper cites typical values of 0.6-0.8 for Synopsys FPGA
	// components.
	Alpha float64
	// ScratchMem is Ms: data units storable between segments.
	ScratchMem int
	// ReconfigNS is the time to reconfigure the device between
	// segments (runtime model only; the ILP minimizes the amount of
	// inter-segment data, which is the proxy the paper optimizes).
	ReconfigNS float64
	// MemXferNSPerUnit is the time to store or restore one data unit
	// (runtime model only).
	MemXferNSPerUnit float64
}

// Validate checks device parameters.
func (d Device) Validate() error {
	if d.CapacityFG <= 0 {
		return fmt.Errorf("library: device %q has non-positive capacity", d.Name)
	}
	if d.Alpha <= 0 || d.Alpha > 1 {
		return fmt.Errorf("library: device %q alpha %v outside (0,1]", d.Name, d.Alpha)
	}
	if d.ScratchMem < 0 {
		return fmt.Errorf("library: device %q negative scratch memory", d.Name)
	}
	return nil
}

// EffectiveFG returns the alpha-scaled FG footprint of a set of FG
// costs, the left side of eq. (11).
func (d Device) EffectiveFG(sumFG int) float64 { return d.Alpha * float64(sumFG) }

// Fits reports whether a segment using sumFG function generators meets
// the capacity constraint (eq. 11).
func (d Device) Fits(sumFG int) bool {
	return d.EffectiveFG(sumFG) <= float64(d.CapacityFG)
}
