package lp

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// maxSlots is the most integers a Key holds.
const maxSlots = 5

// Family is a registered name layout for rows or columns, such as
// "dep[%d@%d->%d@%d,l%d]": literal text around up to five %d slots.
// Its low three bits hold the slot count, so keying a row never reads
// the registry. The zero Family is the family of literal names (Name).
type Family uint16

// layouts holds the registered layouts, indexed by Family>>3; index 0
// is the family of literal names. It keeps only the layout strings, so
// the registry adds next to nothing to a program's live heap.
var (
	layoutsMu sync.Mutex
	layouts   = []string{""}
)

// NewFamily registers a name layout and returns its Family; it is meant
// for package-level variable declarations. Each %d slot prints one of
// the key's integers in decimal, as fmt's %d does. It panics when the
// layout has more than five slots, when a slot follows another without
// literal text that starts with a non-digit between them (two keys
// could then print the same name), or when the layout is already
// registered.
func NewFamily(format string) Family {
	parts := strings.Split(format, "%d")
	slots := len(parts) - 1
	if slots > maxSlots {
		panic(fmt.Sprintf("lp: NewFamily %q: %d slots, at most %d", format, slots, maxSlots))
	}
	for _, sep := range parts[1:max(slots, 1)] {
		if sep == "" || sep[0] >= '0' && sep[0] <= '9' {
			panic(fmt.Sprintf("lp: NewFamily %q: slots must be separated by text starting with a non-digit", format))
		}
	}
	layoutsMu.Lock()
	defer layoutsMu.Unlock()
	for _, l := range layouts[1:] {
		if l == format {
			panic(fmt.Sprintf("lp: NewFamily %q: already registered", format))
		}
	}
	layouts = append(layouts, format)
	return Family((len(layouts)-1)<<3 | slots)
}

func (f Family) slots() int { return int(f & 7) }

func (f Family) layout() string {
	layoutsMu.Lock()
	defer layoutsMu.Unlock()
	return layouts[f>>3]
}

// Key returns the key of family f with the given integers, one per
// slot. It panics unless it gets exactly one integer per slot, each in
// the int32 range.
func (f Family) Key(v ...int) Key {
	if len(v) != f.slots() || f == 0 {
		panic(fmt.Sprintf("lp: Family.Key: %d integers for %d slots", len(v), f.slots()))
	}
	k := Key{fam: f}
	for s, x := range v {
		if int(int32(x)) != x {
			panic(fmt.Sprintf("lp: Family.Key: %d overflows a slot", x))
		}
		k.a[s] = int32(x)
	}
	return k
}

// Key names a row or column without building its string: a Family and
// its integers, or a literal name. Keys compare with ==, and two equal
// keys always print the same name. The zero Key is the empty name.
type Key struct {
	fam  Family
	a    [maxSlots]int32
	name string // literal name, family 0 only
}

// Name returns the key of a literal name, for rows and columns that do
// not belong to a registered Family.
func Name(s string) Key { return Key{name: s} }

// String formats the key's name: a literal name as given, a family key
// by its layout.
func (k Key) String() string {
	if k.fam == 0 {
		return k.name
	}
	l := k.fam.layout()
	b := make([]byte, 0, len(l)+4*k.fam.slots())
	for _, v := range k.a[:k.fam.slots()] {
		at := strings.Index(l, "%d")
		b = append(b, l[:at]...)
		b = strconv.AppendInt(b, int64(v), 10)
		l = l[at+2:]
	}
	return string(append(b, l...))
}

// Family returns the constraint family the key belongs to: its name up
// to the first '[', read from the layout without formatting the key.
func (k Key) Family() string {
	name := k.name
	if k.fam != 0 {
		name = k.fam.layout()
	}
	family, _, _ := strings.Cut(name, "[")
	return family
}

// key is a Key as a Problem stores it. A literal name is replaced by
// its index in the problem's names plus one (zero for the empty name),
// so stored keys hold no pointers for the garbage collector to scan.
type key struct {
	fam Family
	a   [maxSlots]int32
}
