package main

import (
	"context"
	"errors"
	"flag"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/library"
	"repro/internal/oracle"
	"repro/internal/partition"
)

func TestLoadBuiltinExpected(t *testing.T) {
	exp, err := loadBuiltinExpected()
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Suite) != 5 || len(exp.Paper) != len(paperRows) || len(exp.Ladder["ewf"]) != len(alphas) {
		t.Errorf("unexpected sizes: %d suite, %d paper, %d ewf ladder points",
			len(exp.Suite), len(exp.Paper), len(exp.Ladder["ewf"]))
	}
}

func TestLoadExpectedRejects(t *testing.T) {
	const ok = `{"suite": {"a": {"feasible": true, "optimal": true, "comm": 3}}, "paper": {}, "ladder": {}}`
	if _, err := loadExpected([]byte(ok), []string{"a"}, nil, nil); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		data           string
		suite, ladders []string
		want           string
	}{
		"renamed":      {ok, []string{"b"}, nil, `lacks "b"`},
		"missing":      {ok, []string{"a", "b"}, nil, "has 1 entries, want 2"},
		"unproved":     {`{"suite": {"a": {"feasible": true, "comm": 3}}}`, []string{"a"}, nil, "not a proved verdict"},
		"comm":         {`{"suite": {"a": {"optimal": true, "comm": 3}}}`, []string{"a"}, nil, "infeasible but has comm"},
		"unknown":      {`{"suite": {}, "extra": 1}`, nil, nil, "unknown field"},
		"short ladder": {`{"ladder": {"ewf": {"0.55": {"feasible": true, "optimal": true}}}}`, nil, []string{"ewf"}, "has 1 entries, want 10"},
		"no ladder":    {`{"ladder": {}}`, nil, []string{"ewf"}, "0 ladders, want 1"},
		"truncated":    {`{`, nil, nil, "unexpected EOF"},
	} {
		_, err := loadExpected([]byte(tc.data), tc.suite, nil, tc.ladders)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, tc.want)
		}
	}
}

func TestVerdictCheck(t *testing.T) {
	exp, err := loadBuiltinExpected()
	if err != nil {
		t.Fatal(err)
	}
	fams, err := loadFamilies()
	if err != nil {
		t.Fatal(err)
	}
	f := fams["diffeq"]
	dev := library.XC4010()
	dev.Alpha = 0.7
	res, err := core.SolveInstance(core.Instance{Graph: f.g, Alloc: f.alloc, Device: dev},
		core.Options{N: 2, L: 2, Tightened: true, DisableProbe: true})
	if err != nil {
		t.Fatal(err)
	}
	want := exp.Ladder["diffeq"]["0.7"]
	if err := want.check(answer{res.Feasible, res.Optimal, res.Solution}, f.g, f.alloc, dev, 2); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	bad := *res.Solution
	bad.TaskPartition = append([]int(nil), bad.TaskPartition...)
	bad.TaskPartition[0] = bad.N + 1
	for name, a := range map[string]answer{
		"infeasible":   {false, true, nil},
		"unproved":     {true, false, res.Solution},
		"no solution":  {true, true, nil},
		"wrong comm":   {true, true, &partition.Solution{N: 2, Comm: want.Comm + 1}},
		"bad solution": {true, true, &bad},
	} {
		if err := want.check(a, f.g, f.alloc, dev, 2); err == nil {
			t.Errorf("%s: wrong answer accepted", name)
		}
	}
}

var crossCheck = flag.Bool("crosscheck", false, "cross-check expected.json with certified cold solves (about 40 s)")

// TestExpectedCrossCheck re-derives every expected verdict once, by a
// path independent of the benchmark's: a cold solve with exact
// certification and the exact sweep off, so the MILP and its
// certificate run. Paper rows that close only under the exact sweep are
// checked by bound where they can be: a verified solution of comm 0 is
// optimal, as no solution costs less. internal/oracle checks whatever
// fits its size limits.
func TestExpectedCrossCheck(t *testing.T) {
	if !*crossCheck {
		t.Skip("run with -crosscheck")
	}
	ctx := context.Background()
	exp, err := loadBuiltinExpected()
	if err != nil {
		t.Fatal(err)
	}
	var cases []instanceCase
	for _, setup := range []func(context.Context, int64, *expected) (bench, error){setupSuite, setupPaper} {
		b, err := setup(ctx, 1, exp)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, b.(*instanceBench).cases...)
	}
	fams, err := loadFamilies()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ladderGraphs {
		f := fams[name]
		for _, a := range alphas {
			dev := library.XC4010()
			dev.Alpha = a
			cases = append(cases, instanceCase{name: name + " α=" + alphaKey(a),
				inst: core.Instance{Graph: f.g, Alloc: f.alloc, Device: dev},
				opt:  f.request(name, a, true).Options.Options, want: exp.Ladder[name][alphaKey(a)]})
		}
	}
	for _, c := range cases {
		check := func(res *core.Result) error {
			return c.want.check(answer{res.Feasible, res.Optimal, res.Solution}, c.inst.Graph, c.inst.Alloc, c.inst.Device, c.opt.L)
		}
		opt := c.opt
		opt.Certify, opt.ExactSweep, opt.TimeLimit = true, false, 5*time.Second
		res, err := core.SolveInstance(c.inst, opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		switch {
		case res.Optimal:
			if err := check(res); err != nil {
				t.Errorf("%s: the certified solve disagrees: %v", c.name, err)
			}
			if res.Certificate == nil || !res.Certificate.Valid {
				t.Errorf("%s: no valid certificate", c.name)
			}
		case c.want.Feasible && c.want.Comm == 0:
			if res, err = core.SolveInstance(c.inst, c.opt); err == nil {
				err = check(res)
			}
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
			t.Logf("%s: the certified solve did not close; a verified comm-0 solution is optimal by bound", c.name)
		default:
			t.Logf("%s: the certified solve did not close; the verdict rests on the exact sweep alone", c.name)
		}
		if o, err := oracle.Solve(c.inst.Graph, c.inst.Alloc, c.inst.Device, c.opt.N, c.opt.L); err == nil {
			if o.Feasible != c.want.Feasible || o.Feasible && o.Comm != c.want.Comm {
				t.Errorf("%s: the oracle says feasible=%v comm=%d", c.name, o.Feasible, o.Comm)
			}
		} else if !errors.Is(err, oracle.ErrTooLarge) {
			t.Errorf("%s: oracle: %v", c.name, err)
		}
	}
}
