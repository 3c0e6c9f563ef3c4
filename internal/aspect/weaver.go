package aspect

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Weaver owns the registered aspects and produces woven invocation
// handles. It is the load-time weaver of the reproduction: components hand
// their invocation Func to Weave when they are deployed and receive the
// advised Func back. Aspects registered later still apply to
// already-woven components because the advice chain is resolved lazily and
// cached per woven handle, invalidated whenever the aspect set changes.
//
// Concurrency contract: the woven fast path is lock-free. All weaver
// configuration (the aspect set, precedence order and per-component
// interception switches) lives in an immutable snapshot published through
// an atomic pointer; mutations copy, rebuild and swap the snapshot under
// a mutex that dispatch never touches. Each woven handle caches its
// resolved advice chain stamped with the snapshot generation it was built
// against and revalidates that stamp on every invocation, so a
// registration, unregistration or component toggle is observed by every
// handle on its very next call — no stale chain survives a generation
// bump.
type Weaver struct {
	clock sim.Clock

	// mu serialises configuration changes only; dispatch never takes it.
	mu      sync.Mutex
	regSeq  map[*Aspect]int
	nextReg int

	snap atomic.Pointer[snapshot]

	// joinPoints is striped: it is bumped on every advised execution
	// from every dispatching goroutine, so a single atomic cell would be
	// the last contended cache line on the hot path.
	joinPoints *metrics.StripedCounter

	// jpPool recycles JoinPoint values across advised executions so the
	// steady-state dispatch path allocates nothing. Advice bodies receive
	// the pooled value and must not retain it past their own return — see
	// the JoinPoint lifetime contract in the package comment.
	jpPool sync.Pool
}

// snapshot is the weaver's immutable copy-on-write configuration. Never
// mutated after publication, so dispatch may read it without locks.
type snapshot struct {
	gen      int64
	aspects  []*Aspect // sorted by (Order, registration)
	disabled map[string]bool
}

// JoinPointTap is implemented by invocation arguments that want per-flow
// join point accounting. On every advised execution the weaver calls
// JoinPointCrossed on the first argument that implements it, which lets
// a request (and the database connection bound to it) count exactly the
// advised executions it crossed without reading the weaver's
// process-global counter — the accounting stays correct when many
// requests dispatch concurrently. A woven component invoked without any
// tap-bearing argument is invisible to per-flow accounting; wire the
// flow's connection (or the request itself) through such calls.
type JoinPointTap interface{ JoinPointCrossed() }

// NewWeaver creates a weaver whose time source, for the advice and agents
// that read it through Clock, is clock (WallClock when nil).
func NewWeaver(clock sim.Clock) *Weaver {
	if clock == nil {
		clock = sim.WallClock{}
	}
	w := &Weaver{
		clock:      clock,
		regSeq:     make(map[*Aspect]int),
		joinPoints: metrics.NewStripedCounter(),
	}
	w.jpPool.New = func() any { return new(JoinPoint) }
	w.snap.Store(&snapshot{disabled: map[string]bool{}})
	return w
}

// Register adds an aspect. The aspect starts enabled. Registering two
// aspects with the same name is an error.
func (w *Weaver) Register(a *Aspect) error {
	if err := a.Validate(); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	cur := w.snap.Load()
	for _, ex := range cur.aspects {
		if ex.Name == a.Name {
			return fmt.Errorf("aspect: aspect %q already registered", a.Name)
		}
	}
	a.SetEnabled(true)
	w.regSeq[a] = w.nextReg
	w.nextReg++
	aspects := make([]*Aspect, 0, len(cur.aspects)+1)
	aspects = append(aspects, cur.aspects...)
	aspects = append(aspects, a)
	sort.SliceStable(aspects, func(i, j int) bool {
		if aspects[i].Order != aspects[j].Order {
			return aspects[i].Order < aspects[j].Order
		}
		return w.regSeq[aspects[i]] < w.regSeq[aspects[j]]
	})
	w.snap.Store(&snapshot{gen: cur.gen + 1, aspects: aspects, disabled: cur.disabled})
	return nil
}

// Unregister removes the named aspect; it reports whether it was present.
func (w *Weaver) Unregister(name string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	cur := w.snap.Load()
	for i, a := range cur.aspects {
		if a.Name == name {
			delete(w.regSeq, a)
			aspects := make([]*Aspect, 0, len(cur.aspects)-1)
			aspects = append(aspects, cur.aspects[:i]...)
			aspects = append(aspects, cur.aspects[i+1:]...)
			w.snap.Store(&snapshot{gen: cur.gen + 1, aspects: aspects, disabled: cur.disabled})
			return true
		}
	}
	return false
}

// Aspects returns the registered aspects in precedence order.
func (w *Weaver) Aspects() []*Aspect {
	return append([]*Aspect(nil), w.snap.Load().aspects...)
}

// Find returns the registered aspect with the given name.
func (w *Weaver) Find(name string) (*Aspect, bool) {
	for _, a := range w.snap.Load().aspects {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// SetComponentEnabled switches interception for one component on or off at
// runtime — the per-AC activation of the paper. While off, woven handles
// of the component call straight through with near-zero overhead.
func (w *Weaver) SetComponentEnabled(component string, on bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	cur := w.snap.Load()
	disabled := make(map[string]bool, len(cur.disabled)+1)
	for c, off := range cur.disabled {
		disabled[c] = off
	}
	if on {
		delete(disabled, component)
	} else {
		disabled[component] = true
	}
	w.snap.Store(&snapshot{gen: cur.gen + 1, aspects: cur.aspects, disabled: disabled})
}

// ComponentEnabled reports whether interception is active for component.
func (w *Weaver) ComponentEnabled(component string) bool {
	return !w.snap.Load().disabled[component]
}

// Generation returns the configuration generation, bumped by every
// registration, unregistration and component toggle. Handles woven
// through this weaver never execute a chain resolved against an older
// generation than the one returned before their invocation started.
func (w *Weaver) Generation() int64 { return w.snap.Load().gen }

// JoinPoints returns the total number of advised executions so far.
func (w *Weaver) JoinPoints() int64 { return w.joinPoints.Value() }

// Clock returns the weaver's time source.
func (w *Weaver) Clock() sim.Clock { return w.clock }

// handle is the dispatch state of one woven signature. cached holds the
// advice chain resolved against a specific snapshot generation; dispatch
// revalidates the stamp against the current snapshot on every call and
// re-resolves lock-free when the configuration changed.
type handle struct {
	w         *Weaver
	component string
	method    string
	fn        Func
	cached    atomic.Pointer[resolvedChain]
}

type resolvedChain struct {
	gen       int64
	intercept bool // component interception on in this generation
	chain     []*Aspect
}

func (w *Weaver) newHandle(component, method string, fn Func) *handle {
	if fn == nil {
		panic("aspect: weave of nil func")
	}
	return &handle{w: w, component: component, method: method, fn: fn}
}

// Weave wraps fn so that every invocation becomes a join point advised by
// the matching aspects. The depth argument of the returned function is
// managed by Invoke; use the returned Func through Invoke or call it with
// the raw args directly (depth 0).
func (w *Weaver) Weave(component, method string, fn Func) Func {
	h := w.newHandle(component, method, fn)
	return func(args ...any) (any, error) {
		return h.dispatch(args, 0)
	}
}

// WeaveDepth is like Weave but produces a handle whose invocations carry
// an explicit nesting depth, used by the container when one woven
// component calls another.
func (w *Weaver) WeaveDepth(component, method string, fn Func) func(depth int, args ...any) (any, error) {
	h := w.newHandle(component, method, fn)
	return func(depth int, args ...any) (any, error) {
		return h.dispatch(args, depth)
	}
}

// dispatch is the woven hot path: two atomic pointer loads and a
// generation compare when the aspect set is unchanged; no mutex is
// acquired and the no-match and disabled cases allocate nothing.
func (h *handle) dispatch(args []any, depth int) (any, error) {
	snap := h.w.snap.Load()
	rc := h.cached.Load()
	if rc == nil || rc.gen != snap.gen {
		rc = h.resolve(snap)
	}
	if !rc.intercept || len(rc.chain) == 0 {
		return h.fn(args...)
	}
	w := h.w
	w.joinPoints.Inc()
	for _, arg := range args {
		if tap, ok := arg.(JoinPointTap); ok {
			tap.JoinPointCrossed()
			break
		}
	}
	jp := w.jpPool.Get().(*JoinPoint)
	jp.Component = h.component
	jp.Method = h.method
	jp.Args = args
	jp.Result, jp.Err = nil, nil
	jp.Depth = depth
	res, err := w.runChain(jp, rc.chain, 0, h.fn)
	// Recycle: every advice body has returned by now (After advice runs
	// inside runChain), so the join point is dead. Clear what it references
	// so the pool does not pin arguments or results. A panicking advice
	// body skips the recycle — the join point is simply collected.
	jp.Args = nil
	jp.Result, jp.Err = nil, nil
	w.jpPool.Put(jp)
	return res, err
}

// resolve matches the snapshot's aspects against this handle's signature
// and publishes the result. Two goroutines may resolve concurrently and
// the slower (possibly older-generation) publication can land last; that
// is benign because every dispatch revalidates the stamp against the
// snapshot it loaded — a stale publication only costs one re-resolve, it
// is never executed against a newer snapshot.
func (h *handle) resolve(snap *snapshot) *resolvedChain {
	var chain []*Aspect
	for _, a := range snap.aspects {
		if a.Pointcut.Matches(h.component, h.method) {
			chain = append(chain, a)
		}
	}
	rc := &resolvedChain{
		gen:       snap.gen,
		intercept: !snap.disabled[h.component],
		chain:     chain,
	}
	h.cached.Store(rc)
	return rc
}

// runChain executes the advice layers from index i outward-in, ending at
// the component function.
func (w *Weaver) runChain(jp *JoinPoint, chain []*Aspect, i int, fn Func) (res any, err error) {
	if i == len(chain) {
		return fn(jp.Args...)
	}
	a := chain[i]
	if !a.Enabled() {
		return w.runChain(jp, chain, i+1, fn)
	}
	a.executions.Add(1)

	// After advice is exception-safe: it runs even if an inner layer or
	// the component panics, like AspectJ's after() finally semantics.
	if a.After != nil {
		defer a.After(jp)
	}
	if a.Before != nil {
		a.Before(jp)
	}
	// The proceed closure is only materialised for around advice — the
	// before/after-only chain (the AC's shape) must not allocate per
	// execution.
	if a.Around != nil {
		res, err = a.Around(jp, func() (any, error) {
			return w.runChain(jp, chain, i+1, fn)
		})
	} else {
		res, err = w.runChain(jp, chain, i+1, fn)
	}
	jp.Result, jp.Err = res, err
	if err == nil {
		if a.AfterReturning != nil {
			a.AfterReturning(jp)
		}
	} else if a.AfterThrowing != nil {
		a.AfterThrowing(jp)
	}
	return res, err
}
