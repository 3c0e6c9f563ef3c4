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

// resolvedChain is a handle's advice chain for one generation, empty
// while the component's interception is off, and the runner its shape
// takes: runPlain for a chain with no around advice and at most 64
// layers (its layer set is one word), runChain otherwise.
type resolvedChain struct {
	gen   int64
	chain []layer
	run   func(*JoinPoint, []layer, Func) (any, error)
}

// layer is one matching aspect and what its Bind returned for the
// handle's component.
type layer struct {
	a     *Aspect
	bound any
}

func (w *Weaver) newHandle(component, method string, fn Func) *handle {
	if fn == nil {
		panic("aspect: weave of nil func")
	}
	return &handle{w: w, component: component, method: method, fn: fn}
}

// Weave wraps fn so that every invocation becomes a join point advised by
// the matching aspects. The returned function runs at nesting depth 0;
// use WeaveDepth for a component that other woven components call.
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
	if len(rc.chain) == 0 {
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
	res, err := rc.run(jp, rc.chain, h.fn)
	// Recycle: every advice body has returned by now, so the join point
	// is dead. Clear what it references so the pool does not pin
	// arguments or results. A panicking advice body skips the recycle —
	// the join point is simply collected.
	jp.Args = nil
	jp.Result, jp.Err, jp.Bound = nil, nil, nil
	w.jpPool.Put(jp)
	return res, err
}

// resolve matches the snapshot's aspects against this handle's signature,
// binds each match to the component and publishes the result. Two
// goroutines may resolve concurrently and the slower (possibly
// older-generation) publication can land last; that is benign because
// every dispatch revalidates the stamp against the snapshot it loaded — a
// stale publication only costs one re-resolve, it is never executed
// against a newer snapshot.
func (h *handle) resolve(snap *snapshot) *resolvedChain {
	rc := &resolvedChain{gen: snap.gen, run: runPlain}
	if !snap.disabled[h.component] {
		for _, a := range snap.aspects {
			if !a.Pointcut.Matches(h.component, h.method) {
				continue
			}
			l := layer{a: a}
			if a.Bind != nil {
				l.bound = a.Bind(h.component)
			}
			rc.chain = append(rc.chain, l)
			if a.Around != nil || len(rc.chain) > 64 {
				rc.run = runChain
			}
		}
	}
	h.cached.Store(rc)
	return rc
}

// runPlain runs a chain without around advice in one pass: every enabled
// layer's Before outermost first, the component, then innermost first
// each layer's AfterReturning or AfterThrowing followed by its After.
// entered holds the layers whose After is still owed, so the one defer
// keeps AspectJ's after() finally semantics: when an advice body or the
// component panics, each entered layer runs its After, innermost first,
// exactly as the nested runChain would.
func runPlain(jp *JoinPoint, chain []layer, fn Func) (res any, err error) {
	var entered uint64
	defer func() {
		if entered != 0 {
			unwind(jp, chain, &entered)
		}
	}()
	for i := range chain {
		l := &chain[i]
		if !l.a.Enabled() {
			continue
		}
		entered |= 1 << i
		if l.a.Before != nil {
			jp.Bound = l.bound
			l.a.Before(jp)
		}
	}
	res, err = fn(jp.Args...)
	for i := len(chain) - 1; i >= 0; i-- {
		if entered&(1<<i) == 0 {
			continue
		}
		l := &chain[i]
		jp.Result, jp.Err, jp.Bound = res, err, l.bound
		if err == nil {
			if l.a.AfterReturning != nil {
				l.a.AfterReturning(jp)
			}
		} else if l.a.AfterThrowing != nil {
			l.a.AfterThrowing(jp)
		}
		entered &^= 1 << i
		l.after(jp)
	}
	return res, err
}

// unwind runs, innermost first, the After of every layer still in
// entered, which is empty unless a panic is leaving runPlain. An After
// that panics in turn leaves the outer layers theirs: the deferred call
// resumes the unwind, as the nested defers of runChain would.
func unwind(jp *JoinPoint, chain []layer, entered *uint64) {
	if *entered == 0 {
		return
	}
	defer unwind(jp, chain, entered)
	for i := len(chain) - 1; i >= 0; i-- {
		if *entered&(1<<i) != 0 {
			*entered &^= 1 << i
			chain[i].after(jp)
		}
	}
}

// after runs the layer's After advice, if any, with its own binding.
func (l *layer) after(jp *JoinPoint) {
	if l.a.After != nil {
		jp.Bound = l.bound
		l.a.After(jp)
	}
}

// runChain executes a chain with around advice, nesting layer by layer
// from the outermost inward and ending at the component function.
func runChain(jp *JoinPoint, chain []layer, fn Func) (res any, err error) {
	if len(chain) == 0 {
		return fn(jp.Args...)
	}
	l := &chain[0]
	if !l.a.Enabled() {
		return runChain(jp, chain[1:], fn)
	}
	// After advice is exception-safe: it runs even if an inner layer or
	// the component panics, like AspectJ's after() finally semantics.
	defer l.after(jp)
	jp.Bound = l.bound
	if l.a.Before != nil {
		l.a.Before(jp)
	}
	if l.a.Around != nil {
		res, err = l.a.Around(jp, func() (any, error) {
			res, err := runChain(jp, chain[1:], fn)
			jp.Bound = l.bound
			return res, err
		})
	} else {
		res, err = runChain(jp, chain[1:], fn)
	}
	jp.Result, jp.Err, jp.Bound = res, err, l.bound
	if err == nil {
		if l.a.AfterReturning != nil {
			l.a.AfterReturning(jp)
		}
	} else if l.a.AfterThrowing != nil {
		l.a.AfterThrowing(jp)
	}
	return res, err
}
