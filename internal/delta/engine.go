package delta

import (
	"container/list"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/partition"
	"repro/internal/trace"
)

// Re-solve paths reported in Info.Path.
const (
	// PathCold is a from-scratch solve (no cached base, or a structural
	// edit).
	PathCold = "cold"
	// PathWarm is a search warm-started from the cached root basis
	// (edited clone), usually also primed with the cached incumbent.
	PathWarm = "warm"
	// PathReuse returns the cached conclusion without any search: a
	// pure tightening whose surviving optimal incumbent (or proven
	// infeasibility) pins the new optimum exactly.
	PathReuse = "reuse"
)

// Info describes how an Engine.Solve dispatched a request.
type Info struct {
	// Class is the edit classification against the cached base build
	// ("" when no base was cached).
	Class string `json:"class,omitempty"`
	// Path is the re-solve path taken: cold, warm or reuse.
	Path string `json:"path"`
	// Primed reports that the cached solution re-verified under the new
	// instance and primed the incumbent.
	Primed bool `json:"primed,omitempty"`
}

// maxBuilds caps the entries that keep their build: only the entries
// most recently solved or used as a warm base do, so exact-hit reads
// never strip the base a running chain is about to warm from.
const maxBuilds = 8

// build is the re-solve state of a cached solve: the post-presolve
// model and a solver template anchored at a solved root basis of its
// problem. Immutable after insertion — every use clones the template
// first — so concurrent amends against one base are safe.
type build struct {
	model *core.Model
	root  *lp.Solver
}

// entry is one cached solve under its canonical key: the completed
// result, which serves exact hits, and while the entry is among the
// maxBuilds most recently solved or used as a warm base, its build.
type entry struct {
	key    string
	result *core.Result
	build  *build
	el     *list.Element // position in Engine.order
}

// Engine caches completed solves by canonical instance key — one cache
// serving both exact hits and warm bases — and dispatches amended
// solves down the cheapest sound path. Safe for concurrent use; the
// solves themselves run outside the lock.
type Engine struct {
	size int

	mu      sync.Mutex
	entries map[string]*entry
	order   *list.List // result recency, front = most recent; values are *entry
	builds  []*entry   // entries holding a build, most recent first

	// counters, read via Metrics
	solves, warm, reuse, structural uint64
}

// NewEngine returns an engine caching up to size completed results;
// size <= 0 caches nothing, which disables exact hits and warm bases
// alike.
func NewEngine(size int) *Engine {
	return &Engine{size: size, entries: map[string]*entry{}, order: list.New()}
}

// Metrics is a snapshot of the engine's dispatch counters.
type Metrics struct {
	Solves     uint64 `json:"solves"`
	Warm       uint64 `json:"warm"`
	Reuse      uint64 `json:"reuse"`
	Structural uint64 `json:"structural"`
	// Entries is the number of cached results.
	Entries int `json:"entries"`
}

// Metrics returns the dispatch counters and current cache size.
func (e *Engine) Metrics() Metrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Metrics{Solves: e.solves, Warm: e.warm, Reuse: e.reuse,
		Structural: e.structural, Entries: e.order.Len()}
}

// Lookup returns the cached result of an exact hit on key. It refreshes
// the result's recency but not its build's: reading a result is not a
// reason to keep a model and root basis alive.
func (e *Engine) Lookup(key string) (*core.Result, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	en, ok := e.entries[key]
	if !ok {
		return nil, false
	}
	e.order.MoveToFront(en.el)
	return en.result, true
}

// base returns the cached result and build under key for a warm start,
// refreshing both recencies. The build is nil when the entry is missing
// or has already dropped it.
func (e *Engine) base(key string) (*core.Result, *build) {
	e.mu.Lock()
	defer e.mu.Unlock()
	en, ok := e.entries[key]
	if !ok || en.build == nil {
		return nil, nil
	}
	e.order.MoveToFront(en.el)
	e.keepBuild(en)
	return en.result, en.build
}

// store caches a completed solve under key, with its build when b is
// non-nil. Cancelled solves are not cached.
func (e *Engine) store(key string, res *core.Result, b *build) {
	if e.size <= 0 || key == "" || res == nil || res.Cancelled {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	en, ok := e.entries[key]
	if ok {
		e.order.MoveToFront(en.el)
	} else {
		en = &entry{key: key}
		en.el = e.order.PushFront(en)
		e.entries[key] = en
		if e.order.Len() > e.size {
			old := e.order.Remove(e.order.Back()).(*entry)
			delete(e.entries, old.key)
			e.dropBuild(old)
		}
	}
	en.result = res
	if b == nil {
		e.dropBuild(en)
		return
	}
	en.build = b
	e.keepBuild(en)
}

// keepBuild moves en to the front of the build recency list; the entry
// pushed past maxBuilds drops its build. Callers hold e.mu.
func (e *Engine) keepBuild(en *entry) {
	i := slices.Index(e.builds, en)
	if i < 0 {
		e.builds = append(e.builds, en)
		i = len(e.builds) - 1
	}
	copy(e.builds[1:i+1], e.builds[:i])
	e.builds[0] = en
	if len(e.builds) > maxBuilds {
		e.dropBuild(e.builds[maxBuilds])
	}
}

// dropBuild releases en's build. Callers hold e.mu.
func (e *Engine) dropBuild(en *entry) {
	en.build = nil
	if i := slices.Index(e.builds, en); i >= 0 {
		e.builds = slices.Delete(e.builds, i, i+1)
	}
}

// Solve builds the instance and solves it, warm-starting from the
// cached build under baseKey when one exists and the edit class allows
// it. The completed result is cached under key — with its build, for
// future amends (so a chain of amends, or a sweep walking neighboring
// points, stays warm). key and baseKey are the service's canonical
// instance hashes; "" for baseKey means a cold solve. Solve never
// answers from the cache itself: exact hits are the caller's Lookup.
func (e *Engine) Solve(ctx context.Context, key, baseKey string, inst core.Instance, opt core.Options) (*core.Result, Info, error) {
	e.mu.Lock()
	e.solves++
	e.mu.Unlock()
	info := Info{Path: PathCold}
	start := time.Now()
	m, err := core.Build(inst, opt)
	if err != nil {
		return nil, info, err
	}
	if m.ApplyPresolve() {
		// proven infeasible before any LP existed; SolveContext returns
		// the canonical early result. Cached for exact hits, but with no
		// build: there is no root basis, and a diff against the emptied
		// problem would prove nothing.
		res, err := m.SolveContext(ctx)
		if err == nil {
			e.store(key, res, nil)
		}
		return res, info, err
	}

	var baseRes *core.Result
	var base *build
	if baseKey != "" && baseKey != key {
		baseRes, base = e.base(baseKey)
	}
	warm := &core.Warm{}
	var template *lp.Solver // un-reoptimized root template for the reuse path
	if base != nil {
		d := DiffProblems(base.model.P, m.P)
		info.Class = d.Class.String()
		if d.Class == ClassStructural {
			e.mu.Lock()
			e.structural++
			e.mu.Unlock()
		}
		if d.Class.warmable() && base.root != nil {
			ws := base.root.Clone()
			for _, vb := range d.VarBounds {
				ws.SetBound(vb.Col, vb.Lo, vb.Hi)
			}
			for _, rb := range d.RowBounds {
				ws.SetRowBounds(rb.Row, rb.Lo, rb.Hi)
			}
			for _, oc := range d.Obj {
				ws.SetObj(oc.Col, oc.C)
			}
			warm.Solver = ws
			template = ws
			info.Path = PathWarm
		}
		if d.Class != ClassStructural {
			warm.Prime = reusableSolution(baseRes, m)
			info.Primed = warm.Prime != nil
			// Monotone-direction conclusion reuse: a pure tightening can
			// only raise a minimization optimum, so a surviving optimal
			// incumbent pins it exactly (old_opt <= new_opt <= old_obj =
			// old_opt), and a proven-infeasible base stays infeasible.
			// With certification on we run the (primed, warm) search
			// instead so internal/exact re-certifies the verdict against
			// the new problem.
			if d.Tightens && baseRes.Optimal && !opt.Certify && (!baseRes.Feasible || warm.Prime != nil) {
				res := e.reuseResult(m, warm.Prime, start, opt)
				e.store(key, res, &build{model: m, root: template})
				info.Path = PathReuse
				return res, info, nil
			}
		}
	}
	if tr := opt.Trace; tr.Enabled() {
		tr.Emit(trace.Event{Kind: trace.KindPlan,
			Msg: fmt.Sprintf("delta: class=%s path=%s primed=%v", orDash(info.Class), info.Path, info.Primed)})
	}

	// Capture this solve's root basis (clone taken synchronously inside
	// the root hook, before the search mutates the solver) so the entry
	// can warm future amends.
	var rootClone *lp.Solver
	warm.OnRoot = func(s *lp.Solver) { rootClone = s.Clone() }
	m.SetWarm(warm)
	res, err := m.SolveContext(ctx)
	if err != nil || res == nil || res.Cancelled {
		return res, info, err
	}
	if info.Path == PathWarm {
		e.mu.Lock()
		e.warm++
		e.mu.Unlock()
	}
	e.store(key, res, &build{model: m, root: rootClone})
	return res, info, err
}

// reuseResult assembles the conclusion-reuse result: the (copied,
// re-verified) cached solution as the proven optimum, or the proven
// infeasibility, with zero search work. Emitted as its own result
// event so job traces stay complete.
func (e *Engine) reuseResult(m *core.Model, sol *partition.Solution, start time.Time, opt core.Options) *core.Result {
	e.mu.Lock()
	e.reuse++
	e.mu.Unlock()
	res := &core.Result{
		Optimal: true,
		Stats:   m.Stats(),
		Runtime: time.Since(start),
	}
	if sol != nil {
		res.Feasible = true
		res.Solution = sol
	}
	if tr := opt.Trace; tr.Enabled() {
		tr.Emit(trace.Event{Kind: trace.KindPlan,
			Msg: "delta: class=bounds path=reuse (monotone tightening, conclusion carried over)"})
	}
	m.EmitResult(res)
	return res
}

// reusableSolution re-renders the cached solution against the NEW
// model's instance: a deep copy whose comm cost is recomputed on the
// new graph and which must pass the independent partition verifier
// before it is allowed to prime (and thus prune) anything. Nil when
// the cached solve had no solution or verification fails.
func reusableSolution(base *core.Result, m *core.Model) *partition.Solution {
	if base == nil || base.Solution == nil || base.Solution.N != m.N {
		return nil
	}
	src := base.Solution
	sol := &partition.Solution{
		N:             src.N,
		TaskPartition: append([]int(nil), src.TaskPartition...),
		OpStep:        append([]int(nil), src.OpStep...),
		OpUnit:        append([]int(nil), src.OpUnit...),
	}
	sol.Comm = sol.CommCost(m.Inst.Graph)
	err := partition.Verify(m.Inst.Graph, m.Inst.Alloc, m.Inst.Device, sol, partition.VerifyOptions{
		L:          m.Opt.L,
		Windows:    m.Win,
		Multicycle: m.Opt.Multicycle,
	})
	if err != nil {
		return nil
	}
	return sol
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
