package lp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// keyTestFormats are registered once per test binary, so that the tests
// below may run more than once.
var keyTestFormats = []string{
	"dep[%d@%d->%d@%d,l%d]",
	"own[t%d,t%d,j%d,p%d,p%d]",
	"w[p%d,%d->%d]",
	"k%d",
	"plain",
	"%d-%d",
}

var keyTestFamilies = func() []Family {
	out := make([]Family, len(keyTestFormats))
	for i, f := range keyTestFormats {
		out[i] = NewFamily("keytest " + f)
	}
	return out
}()

// TestFamilyKeysFormatLikeSprintf checks that a family key prints
// exactly what fmt.Sprintf prints for its layout and integers, negative
// values and the int32 extremes included, and that its family is the
// layout up to the first '['.
func TestFamilyKeysFormatLikeSprintf(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		c := r.Intn(len(keyTestFormats))
		format, fam := "keytest "+keyTestFormats[c], keyTestFamilies[c]
		v := make([]int, strings.Count(format, "%d"))
		args := make([]any, len(v))
		for s := range v {
			switch r.Intn(4) {
			case 0:
				v[s] = []int{math.MinInt32, math.MaxInt32, 0, -1}[r.Intn(4)]
			default:
				v[s] = r.Intn(2000) - 500
			}
			args[s] = v[s]
		}
		k := fam.Key(v...)
		if got, want := k.String(), fmt.Sprintf(format, args...); got != want {
			t.Fatalf("%q key %v prints %q, want %q", format, v, got, want)
		}
		if got, want := k.Family(), strings.SplitN(format, "[", 2)[0]; got != want {
			t.Fatalf("%q key family %q, want %q", format, got, want)
		}
	}
	if got := Name("cover[dep[1@2->3@4,l0]]").Family(); got != "cover" {
		t.Fatalf("literal family %q, want cover", got)
	}
}

// TestKeysEqualOnlyWithEqualNames checks that keys compare equal
// exactly when they are the same family with the same integers or the
// same literal name, and that a problem hands back the key it was
// given.
func TestKeysEqualOnlyWithEqualNames(t *testing.T) {
	a, b := keyTestFamilies[3], keyTestFamilies[4]
	if a.Key(7) != a.Key(7) || a.Key(7) == a.Key(8) {
		t.Fatal("equal integers must give equal keys, different ones different keys")
	}
	if b.Key() == (Key{}) || Name("x") != Name("x") || Name("x") == Name("y") || Name("") != (Key{}) {
		t.Fatal("literal keys must compare by name")
	}
	p := &Problem{}
	keys := []Key{a.Key(-3), Name("lit"), {}, b.Key(), Name("lit")}
	for _, k := range keys {
		p.AddBinary(k, 0)
		if err := p.AddLE(k, nil, nil, 1); err != nil {
			t.Fatal(err)
		}
	}
	for j, k := range keys {
		if p.VarKey(j) != k || p.RowKey(j) != k || p.VarName(j) != k.String() || p.RowName(j) != k.String() {
			t.Fatalf("key %d: problem returns %v/%v, want %v", j, p.VarKey(j), p.RowKey(j), k)
		}
	}
}

// TestNewFamilyRejectsAmbiguousLayouts checks the layouts NewFamily
// refuses: more than five slots, slots with nothing or a digit between
// them (two keys could print the same name), and a layout registered
// twice. It also checks that a key needs one int32 per slot.
func TestNewFamilyRejectsAmbiguousLayouts(t *testing.T) {
	panics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	panics("six slots", func() { NewFamily("six[%d,%d,%d,%d,%d,%d]") })
	panics("adjacent slots", func() { NewFamily("adj[%d%d]") })
	panics("digit separator", func() { NewFamily("dig[%d0%d]") })
	panics("duplicate", func() { NewFamily("keytest " + keyTestFormats[0]) })
	panics("missing integer", func() { keyTestFamilies[0].Key(1, 2, 3, 4) })
	panics("extra integer", func() { keyTestFamilies[3].Key(1, 2) })
	panics("int32 overflow", func() { keyTestFamilies[3].Key(math.MaxInt32 + 1) })
}
