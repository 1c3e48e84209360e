package core

import (
	"encoding/json"
	"testing"

	"repro/internal/milp"
)

// TestSearchOptionsJSONRoundTrip: the wire form serializes enums by
// name and omits zero fields, names decode, and numeric enum values
// are rejected.
func TestSearchOptionsJSONRoundTrip(t *testing.T) {
	opt := Options{N: 2, Search: SearchOptions{
		Parallelism: 4, Mode: milp.ModeSteal, Branch: BranchMostFrac,
		Cuts: ToggleOn, Dive: ToggleOff,
	}}
	b, err := json.Marshal(opt)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"n":2,"search":{"parallelism":4,"mode":"steal","branch":"most-fractional","cuts":"on","dive":"off"}}`
	if string(b) != want {
		t.Fatalf("marshal = %s, want %s", b, want)
	}
	var back Options
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Search != opt.Search {
		t.Fatalf("round trip = %+v, want %+v", back.Search, opt.Search)
	}
	var fromNames SearchOptions
	if err := json.Unmarshal([]byte(`{"mode":"portfolio","cuts":"off","dive":"auto"}`), &fromNames); err != nil {
		t.Fatal(err)
	}
	if fromNames.Mode != milp.ModePortfolio || fromNames.Cuts != ToggleOff || fromNames.Dive != ToggleAuto {
		t.Fatalf("name decode = %+v", fromNames)
	}
	// each enum has one spelling: its name
	for _, body := range []string{
		`{"search":{"mode":2}}`,
		`{"search":{"branch":1}}`,
		`{"search":{"cuts":1}}`,
		`{"search":{"dive":2}}`,
		`{"linearization":1}`,
	} {
		var o Options
		if err := json.Unmarshal([]byte(body), &o); err == nil {
			t.Errorf("numeric enum %s decoded to %+v", body, o)
		}
	}
	if _, err := milp.ParseSearchMode("warp"); err == nil {
		t.Fatal("ParseSearchMode accepted garbage")
	}
	if _, err := ParseToggle("maybe"); err == nil {
		t.Fatal("ParseToggle accepted garbage")
	}
}

// TestSearchOptionsValidate: Options.Validate must reject out-of-range
// search fields through the embedded group.
func TestSearchOptionsValidate(t *testing.T) {
	good := Options{Search: SearchOptions{Parallelism: 2, Mode: milp.ModePortfolio}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid search options rejected: %v", err)
	}
	bad := []Options{
		{Search: SearchOptions{Parallelism: -1}},
		{Search: SearchOptions{Mode: milp.SearchMode(99)}},
		{Search: SearchOptions{Branch: BranchRule(7)}},
		{Search: SearchOptions{Cuts: Toggle(5)}},
		{Search: SearchOptions{Dive: Toggle(-2)}},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: invalid search options %+v passed Validate", i, o.Search)
		}
	}
}
