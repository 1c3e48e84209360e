package milp

import (
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// shared is the cross-worker state of a solve. The serial path uses it
// too (with exactly one goroutine), so there is a single code path for
// incumbent handling.
//
// The incumbent objective is mirrored in incBits as raw float64 bits
// so the hot pruning test in branch() is a single atomic load with no
// lock. The CAS-min loop keeps it monotonically decreasing; a reader
// seeing a slightly stale (larger) value prunes less, never wrongly,
// which is what makes the parallel objective provably identical to the
// serial one: any subtree discarded against a bound that held at some
// point in time also fails against the final, smaller incumbent.
type shared struct {
	nodes   atomic.Int64  // global explored-node counter (MaxNodes)
	stop    atomic.Int32  // sticky stopReason; first writer wins
	incBits atomic.Uint64 // math.Float64bits of the incumbent objective

	// obs receives every search event of the solve (see observer); held
	// by value so a solve allocates no separate observer.
	// dispBits is the monotone display bound: a CAS-max ratchet over
	// math.Float64bits, seeded with -Inf, raised by the root bound and
	// by the parallel best-bound aggregation, so streamed bound events
	// never regress even though per-subtree LP bounds move both ways.
	obs      observer
	dispBits atomic.Uint64
	// emitMu serializes observer.progress: reading the display bound
	// and emitting it happen under it, so two workers' events reach
	// the tracer in the order of the (monotone) bounds they carry.
	// Taken only while a tracer is attached; the tracer's sinks run
	// under it, so a sink must not call back into the solve.
	emitMu sync.Mutex

	// First-incumbent bookkeeping for the time-to-first-solution
	// experiment columns: firstInc flips once, on the first install that
	// actually improved the incumbent (a primed InitialUpper does not
	// count), stamping the global node count and the elapsed time.
	start        time.Time
	firstInc     atomic.Bool
	firstIncNode atomic.Int64
	firstIncNS   atomic.Int64

	mu     sync.Mutex // guards incObj/incX (the authoritative pair)
	incObj float64
	incX   []float64

	// Live-introspection state (nil/empty when off). pool is published
	// by solveSteal so live snapshots can read the open/steal counters
	// lock-free. wphase holds one coarse phase slot per worker (index 0
	// = serial/coordinator), allocated only when a SearchStatus is
	// attached. The panic fields keep the first recovered worker panic
	// for the terminal error.
	pool   atomic.Pointer[stealPool]
	wphase []atomic.Int32

	panicMu   sync.Mutex
	panicMsg  string
	panicNode int64
}

// newShared returns the cross-worker state of one solve, with its
// observer built from opt.
func newShared(upper float64, opt *Options, start time.Time) *shared {
	sh := &shared{incObj: upper, start: start}
	sh.obs = newObserver(sh, opt)
	sh.incBits.Store(math.Float64bits(upper))
	sh.dispBits.Store(math.Float64bits(math.Inf(-1)))
	return sh
}

// incumbent returns the current incumbent objective for pruning.
func (sh *shared) incumbent() float64 {
	return math.Float64frombits(sh.incBits.Load())
}

// install makes (obj, x) the incumbent if it improves on the current
// one by more than the solver's comparison tolerance; x is copied. An
// install that becomes the authoritative incumbent goes to the
// observer, attributed to worker and the node it was exploring.
func (sh *shared) install(obj float64, x []float64, worker int, node int64) {
	for {
		old := sh.incBits.Load()
		if obj >= math.Float64frombits(old)-1e-9 {
			return
		}
		if sh.incBits.CompareAndSwap(old, math.Float64bits(obj)) {
			break
		}
	}
	sh.mu.Lock()
	improved := false
	if obj < sh.incObj-1e-9 {
		sh.incObj = obj
		sh.incX = append([]float64(nil), x...)
		improved = true
	}
	sh.mu.Unlock()
	if !improved {
		return
	}
	if sh.firstInc.CompareAndSwap(false, true) {
		sh.firstIncNode.Store(sh.nodes.Load())
		sh.firstIncNS.Store(time.Since(sh.start).Nanoseconds())
	}
	sh.obs.incumbent(worker, node, obj)
}

// best returns the final incumbent pair (nil X when none was found).
func (sh *shared) best() (float64, []float64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.incObj, sh.incX
}

// requestStop records the first stop reason; later ones are ignored.
func (sh *shared) requestStop(r stopReason) {
	sh.stop.CompareAndSwap(int32(reasonNone), int32(r))
}

func (sh *shared) stopRequested() stopReason {
	return stopReason(sh.stop.Load())
}

// raiseBound lifts the monotone display bound to v if it improves it,
// reporting whether it moved. Safe under concurrent callers: the
// CAS-max loop keeps dispBits non-decreasing.
func (sh *shared) raiseBound(v float64) bool {
	if math.IsNaN(v) {
		return false
	}
	for {
		old := sh.dispBits.Load()
		if v <= math.Float64frombits(old) {
			return false
		}
		if sh.dispBits.CompareAndSwap(old, math.Float64bits(v)) {
			return true
		}
	}
}

// displayBound returns the current monotone display bound (-Inf until
// the root LP is solved).
func (sh *shared) displayBound() float64 {
	return math.Float64frombits(sh.dispBits.Load())
}

// setPhase publishes worker's coarse phase for live snapshots; no-op
// unless a SearchStatus allocated the phase slots. Called at
// subproblem granularity, never per node.
func (sh *shared) setPhase(worker int, p int32) {
	if sh.wphase == nil || worker < 0 || worker >= len(sh.wphase) {
		return
	}
	sh.wphase[worker].Store(p)
}

// reasonPanic is raised when a worker goroutine panicked and was
// recovered (see recordPanic): the search stops everywhere and
// SolveContext converts the solve into an error, so it never surfaces
// as a Result status.
const reasonPanic = reasonCtx + 1

// recordPanic captures a recovered worker panic at the worker's current
// node (the global count when it had none yet): the first one wins
// the terminal error, every one lands in the black box (with the
// goroutine stack) and the trace, and the black box is flushed so the
// events leading up to the crash survive. Safe from any worker.
func (sh *shared) recordPanic(worker int, node int64, r any) {
	msg := fmt.Sprint(r)
	if node == 0 {
		// the panic came before this goroutine explored any node
		node = sh.nodes.Load()
	}
	sh.panicMu.Lock()
	if sh.panicMsg == "" {
		sh.panicMsg = msg
		sh.panicNode = node
	}
	sh.panicMu.Unlock()
	sh.obs.bb.Anomaly(trace.BBEvent{Kind: trace.BBPanic, Worker: worker, Node: node,
		Incumbent: sh.incumbent(), Bound: sh.displayBound(),
		Msg: msg + "\n" + string(debug.Stack())}, "worker-panic")
	sh.obs.tr.Emit(trace.Event{Kind: trace.KindPanic, Worker: worker, Nodes: node, Msg: msg})
}

// panicked reports the first recovered panic, if any.
func (sh *shared) panicked() (msg string, node int64, ok bool) {
	sh.panicMu.Lock()
	defer sh.panicMu.Unlock()
	return sh.panicMsg, sh.panicNode, sh.panicMsg != ""
}

// guard runs fn, converting a panic into a recorded anomaly: the
// shared state remembers it, the black box flushes, the search stops
// everywhere and the pool (if any) aborts so no worker blocks on the
// crashed one's unfinished subproblem. This wraps every steal-pool
// worker goroutine and the serial dispatch, so a programming error in
// a brancher, probe or the solver itself fails the one solve instead
// of the process.
func (w *solver) guard(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			w.sh.recordPanic(w.worker, w.curNode, r)
			w.reason = reasonPanic
			w.sh.requestStop(reasonPanic)
			if w.pool != nil {
				w.pool.abort()
			}
		}
	}()
	fn()
}

// gapOf is the relative optimality gap between an incumbent objective
// and a proved lower bound, clamped at 0 and scaled by max(1, |inc|).
func gapOf(inc, bound float64) float64 {
	g := inc - bound
	if g < 0 {
		g = 0
	}
	d := math.Abs(inc)
	if d < 1 {
		d = 1
	}
	return g / d
}

// fix is one branching-bound assignment on the path from the root.
type fix struct {
	col int
	val float64
}

// subproblem is an unexplored subtree handed to a worker: the branching
// prefix that defines it, its parent LP bound (already ceil-rounded
// when the objective is integral) used for best-bound aggregation when
// the search stops early, and the recorder node id of the node it was
// donated at, so the worker's pickup re-solve appears as that node's
// child in a recording.
type subproblem struct {
	fixes  []fix
	bound  float64
	parent int64
}
