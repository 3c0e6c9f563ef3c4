package aspect

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func okFunc(ret any) Func {
	return func(args ...any) (any, error) { return ret, nil }
}

func TestWeaveNoAspectsPassesThrough(t *testing.T) {
	w := NewWeaver(nil)
	fn := w.Weave("c", "M", okFunc(42))
	got, err := fn()
	if err != nil || got.(int) != 42 {
		t.Fatalf("passthrough = %v, %v", got, err)
	}
	if w.JoinPoints() != 0 {
		t.Fatal("unadvised call counted as join point")
	}
}

func TestAdviceOrderSingleAspect(t *testing.T) {
	w := NewWeaver(nil)
	var log []string
	err := w.Register(&Aspect{
		Name:     "tracer",
		Pointcut: MustPointcut("execution(c.M)"),
		Before:   func(*JoinPoint) { log = append(log, "before") },
		AfterReturning: func(jp *JoinPoint) {
			log = append(log, "afterReturning")
		},
		After: func(*JoinPoint) { log = append(log, "after") },
	})
	if err != nil {
		t.Fatal(err)
	}
	fn := w.Weave("c", "M", func(args ...any) (any, error) {
		log = append(log, "body")
		return nil, nil
	})
	if _, err := fn(); err != nil {
		t.Fatal(err)
	}
	want := "before,body,afterReturning,after"
	if got := strings.Join(log, ","); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
	if w.JoinPoints() != 1 {
		t.Fatalf("join points = %d", w.JoinPoints())
	}
}

func TestAfterThrowing(t *testing.T) {
	w := NewWeaver(nil)
	boom := errors.New("boom")
	var threw, returned bool
	if err := w.Register(&Aspect{
		Name:           "x",
		Pointcut:       MustPointcut("within(c)"),
		AfterReturning: func(*JoinPoint) { returned = true },
		AfterThrowing: func(jp *JoinPoint) {
			threw = true
			if !errors.Is(jp.Err, boom) {
				t.Errorf("jp.Err = %v", jp.Err)
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	fn := w.Weave("c", "M", func(args ...any) (any, error) { return nil, boom })
	if _, err := fn(); !errors.Is(err, boom) {
		t.Fatalf("woven error = %v", err)
	}
	if !threw || returned {
		t.Fatalf("threw=%v returned=%v", threw, returned)
	}
}

func TestAroundCanSkipExecution(t *testing.T) {
	w := NewWeaver(nil)
	if err := w.Register(&Aspect{
		Name:     "guard",
		Pointcut: MustPointcut("within(c)"),
		Around: func(jp *JoinPoint, proceed Proceed) (any, error) {
			return "short-circuit", nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	ran := false
	fn := w.Weave("c", "M", func(args ...any) (any, error) { ran = true; return 1, nil })
	got, err := fn()
	if err != nil || got.(string) != "short-circuit" {
		t.Fatalf("around = %v, %v", got, err)
	}
	if ran {
		t.Fatal("component ran despite skipping around")
	}
}

func TestAroundWrapsResult(t *testing.T) {
	w := NewWeaver(nil)
	if err := w.Register(&Aspect{
		Name:     "doubler",
		Pointcut: MustPointcut("within(c)"),
		Around: func(jp *JoinPoint, proceed Proceed) (any, error) {
			v, err := proceed()
			if err != nil {
				return nil, err
			}
			return v.(int) * 2, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	fn := w.Weave("c", "M", okFunc(21))
	got, _ := fn()
	if got.(int) != 42 {
		t.Fatalf("around result = %v", got)
	}
}

func TestPrecedenceNesting(t *testing.T) {
	w := NewWeaver(nil)
	var log []string
	mk := func(name string, order int) *Aspect {
		return &Aspect{
			Name: name, Order: order,
			Pointcut: MustPointcut("within(c)"),
			Before:   func(*JoinPoint) { log = append(log, name+".before") },
			After:    func(*JoinPoint) { log = append(log, name+".after") },
		}
	}
	if err := w.Register(mk("inner", 10)); err != nil {
		t.Fatal(err)
	}
	if err := w.Register(mk("outer", 0)); err != nil {
		t.Fatal(err)
	}
	fn := w.Weave("c", "M", okFunc(nil))
	if _, err := fn(); err != nil {
		t.Fatal(err)
	}
	want := "outer.before,inner.before,inner.after,outer.after"
	if got := strings.Join(log, ","); got != want {
		t.Fatalf("nesting = %s, want %s", got, want)
	}
}

func TestRuntimeDisableAspect(t *testing.T) {
	w := NewWeaver(nil)
	count, after := 0, 0
	a := &Aspect{
		Name:     "counter",
		Pointcut: MustPointcut("within(c)"),
		Before:   func(*JoinPoint) { count++ },
		After:    func(*JoinPoint) { after++ },
	}
	if err := w.Register(a); err != nil {
		t.Fatal(err)
	}
	fn := w.Weave("c", "M", okFunc(nil))
	fn()
	a.SetEnabled(false)
	fn()
	fn()
	a.SetEnabled(true)
	fn()
	if count != 2 || after != 2 {
		t.Fatalf("advice fired %d/%d times, want 2/2", count, after)
	}
}

func TestRuntimeDisableComponent(t *testing.T) {
	w := NewWeaver(nil)
	count := 0
	if err := w.Register(&Aspect{
		Name:     "counter",
		Pointcut: MustPointcut("within(*)"),
		Before:   func(*JoinPoint) { count++ },
	}); err != nil {
		t.Fatal(err)
	}
	fn := w.Weave("c", "M", okFunc(nil))
	fn()
	w.SetComponentEnabled("c", false)
	if w.ComponentEnabled("c") {
		t.Fatal("ComponentEnabled true after disable")
	}
	fn()
	w.SetComponentEnabled("c", true)
	fn()
	if count != 2 {
		t.Fatalf("advice fired %d times, want 2", count)
	}
}

func TestLateRegistrationAffectsWovenComponents(t *testing.T) {
	// The paper injects monitoring at runtime over already-deployed
	// components; late aspects must apply to handles woven earlier.
	w := NewWeaver(nil)
	fn := w.Weave("c", "M", okFunc(nil))
	fn() // resolve and cache the empty chain
	count := 0
	if err := w.Register(&Aspect{
		Name:     "late",
		Pointcut: MustPointcut("within(c)"),
		Before:   func(*JoinPoint) { count++ },
	}); err != nil {
		t.Fatal(err)
	}
	fn()
	if count != 1 {
		t.Fatal("late-registered aspect did not fire on woven handle")
	}
	w.Unregister("late")
	fn()
	if count != 1 {
		t.Fatal("unregistered aspect still firing")
	}
}

func TestJoinPointTimesFromClock(t *testing.T) {
	clock := sim.NewVirtualClock()
	w := NewWeaver(clock)
	fired := false
	if err := w.Register(&Aspect{
		Name:     "timer",
		Pointcut: MustPointcut("within(c)"),
		Around: func(jp *JoinPoint, proceed Proceed) (any, error) {
			// The join point is only valid during the advised execution.
			fired = true
			if jp.Signature() != "c.M" {
				t.Errorf("Signature = %q", jp.Signature())
			}
			clock.Advance(5 * time.Millisecond) // simulated service time
			return proceed()
		},
	}); err != nil {
		t.Fatal(err)
	}
	fn := w.Weave("c", "M", okFunc(nil))
	if _, err := fn(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("advice did not fire")
	}
	if w.Clock() != clock {
		t.Fatal("weaver does not expose the clock it was built with")
	}
}

func TestAfterRunsOnPanic(t *testing.T) {
	w := NewWeaver(nil)
	ran := false
	if err := w.Register(&Aspect{
		Name:     "finally",
		Pointcut: MustPointcut("within(c)"),
		After:    func(*JoinPoint) { ran = true },
	}); err != nil {
		t.Fatal(err)
	}
	fn := w.Weave("c", "M", func(args ...any) (any, error) { panic("die") })
	func() {
		defer func() { recover() }()
		fn()
	}()
	if !ran {
		t.Fatal("after advice skipped on panic")
	}
}

func TestRegisterValidation(t *testing.T) {
	w := NewWeaver(nil)
	cases := []*Aspect{
		{},
		{Name: "x"},
		{Name: "x", Pointcut: MustPointcut("within(c)")},
	}
	for i, a := range cases {
		if err := w.Register(a); err == nil {
			t.Errorf("case %d: invalid aspect registered", i)
		}
	}
	ok := &Aspect{Name: "x", Pointcut: MustPointcut("within(c)"), Before: func(*JoinPoint) {}}
	if err := w.Register(ok); err != nil {
		t.Fatal(err)
	}
	dup := &Aspect{Name: "x", Pointcut: MustPointcut("within(c)"), Before: func(*JoinPoint) {}}
	if err := w.Register(dup); err == nil {
		t.Fatal("duplicate name registered")
	}
}

func TestRegisterUnregisterBookkeeping(t *testing.T) {
	w := NewWeaver(nil)
	fired := 0
	a := &Aspect{Name: "a", Pointcut: MustPointcut("within(c)"), Before: func(*JoinPoint) { fired++ }}
	if err := w.Register(a); err != nil {
		t.Fatal(err)
	}
	fn := w.Weave("c", "m", func(...any) (any, error) { return nil, nil })
	if _, err := fn(); err != nil || fired != 1 {
		t.Fatalf("registered aspect fired %d times, err %v", fired, err)
	}
	if w.Unregister("nope") {
		t.Fatal("Unregister removed a ghost")
	}
	if !w.Unregister("a") || w.Unregister("a") {
		t.Fatal("Unregister bookkeeping wrong")
	}
	if _, err := fn(); err != nil || fired != 1 {
		t.Fatalf("unregistered aspect still fired (%d), err %v", fired, err)
	}
	if err := w.Register(a); err != nil {
		t.Fatalf("re-register after Unregister: %v", err)
	}
}

func TestWeaveDepthPropagates(t *testing.T) {
	w := NewWeaver(nil)
	var depths []int
	if err := w.Register(&Aspect{
		Name:     "d",
		Pointcut: MustPointcut("within(*)"),
		Before:   func(jp *JoinPoint) { depths = append(depths, jp.Depth) },
	}); err != nil {
		t.Fatal(err)
	}
	inner := w.WeaveDepth("dao", "Get", okFunc(nil))
	outer := w.WeaveDepth("servlet", "Service", func(args ...any) (any, error) {
		return inner(1)
	})
	if _, err := outer(0); err != nil {
		t.Fatal(err)
	}
	if len(depths) != 2 || depths[0] != 0 || depths[1] != 1 {
		t.Fatalf("depths = %v", depths)
	}
}

func TestWeaveNilPanics(t *testing.T) {
	w := NewWeaver(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Weave(nil) did not panic")
		}
	}()
	w.Weave("c", "M", nil)
}

func TestMultipleAspectsShareJoinPoint(t *testing.T) {
	w := NewWeaver(nil)
	var first, second *JoinPoint
	mk := func(name string, dst **JoinPoint, order int) *Aspect {
		return &Aspect{
			Name: name, Order: order,
			Pointcut: MustPointcut("within(c)"),
			Before:   func(jp *JoinPoint) { *dst = jp },
		}
	}
	if err := w.Register(mk("a", &first, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Register(mk("b", &second, 1)); err != nil {
		t.Fatal(err)
	}
	fn := w.Weave("c", "M", okFunc(nil))
	fn()
	if first == nil || first != second {
		t.Fatal("aspects saw different join points")
	}
}

// refRunChain is the nested chain runner the straight-line runPlain
// replaced, kept as the reference TestPlainChainMatchesReference holds
// runPlain to: one frame and one deferred After per enabled layer.
func refRunChain(jp *JoinPoint, chain []*Aspect, i int, fn Func) (res any, err error) {
	if i == len(chain) {
		return fn(jp.Args...)
	}
	a := chain[i]
	if !a.Enabled() {
		return refRunChain(jp, chain, i+1, fn)
	}
	if a.After != nil {
		defer a.After(jp)
	}
	if a.Before != nil {
		a.Before(jp)
	}
	if a.Around != nil {
		res, err = a.Around(jp, func() (any, error) {
			return refRunChain(jp, chain, i+1, fn)
		})
	} else {
		res, err = refRunChain(jp, chain, i+1, fn)
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

// Advice kinds of a plain-chain case, as bits of a layer's advice set.
const (
	kBefore = 1 << iota
	kAfterReturning
	kAfterThrowing
	kAfter
	kinds = 4
)

var kindNames = [kinds]string{"before", "afterReturning", "afterThrowing", "after"}

// plainCase is one before/after chain: per layer, the advice kinds it has
// and whether it is enabled; what the component does; and which advice
// body (layer, kind) panics, if any.
type plainCase struct {
	advice  []int
	enabled []bool
	outcome int // 0 returns ok, 1 returns an error, 2 panics
	panicAt int // layer*kinds + kind index, or -1
}

var errPlain = errors.New("component failed")

// run executes c through the weaver (woven) or the reference runner and
// returns the advice event log, the result and the recovered panic.
func (c plainCase) run(t *testing.T, woven bool) (log []string, res any, err error, rec any) {
	chain := make([]*Aspect, len(c.advice))
	for i := range chain {
		a := &Aspect{Name: fmt.Sprintf("L%d", i), Order: i, Pointcut: MustPointcut("within(c)")}
		body := func(k int) func(*JoinPoint) {
			return func(jp *JoinPoint) {
				ev := fmt.Sprintf("L%d.%s(%v,%v)", i, kindNames[k], jp.Result, jp.Err)
				if woven && jp.Bound != i {
					ev += fmt.Sprintf(" bound=%v", jp.Bound)
				}
				log = append(log, ev)
				if c.panicAt == i*kinds+k {
					panic(ev)
				}
			}
		}
		for k, dst := range []*func(*JoinPoint){&a.Before, &a.AfterReturning, &a.AfterThrowing, &a.After} {
			if c.advice[i]&(1<<k) != 0 {
				*dst = body(k)
			}
		}
		a.Bind = func(string) any { return i }
		chain[i] = a
	}
	fn := func(...any) (any, error) {
		log = append(log, "body")
		switch c.outcome {
		case 1:
			return "partial", errPlain
		case 2:
			panic("body")
		}
		return "ok", nil
	}
	var w *Weaver
	if woven {
		w = NewWeaver(nil)
		for _, a := range chain {
			if err := w.Register(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, a := range chain {
		a.SetEnabled(c.enabled[i])
	}
	defer func() { rec = recover() }()
	if woven {
		res, err = w.Weave("c", "M", fn)()
	} else {
		res, err = refRunChain(&JoinPoint{Component: "c", Method: "M"}, chain, 0, fn)
	}
	return log, res, err, rec
}

// TestPlainChainMatchesReference is the differential oracle of the
// straight-line runner: over chains of one to three before/after layers,
// every advice subset, enabled and disabled layers, a component that
// succeeds, fails or panics, and a panic in any advice body, the woven
// call must log the same advice events, return the same values and
// propagate the same panic as the nested reference runner. Chains of one
// and two layers are enumerated; three-layer chains are sampled.
func TestPlainChainMatchesReference(t *testing.T) {
	var cases []plainCase
	var layerStates [][2]int // (advice set, enabled)
	for adv := 1; adv < 1<<kinds; adv++ {
		layerStates = append(layerStates, [2]int{adv, 1}, [2]int{adv, 0})
	}
	add := func(states [][2]int, outcome, panicAt int) {
		c := plainCase{outcome: outcome, panicAt: panicAt}
		for _, s := range states {
			c.advice = append(c.advice, s[0])
			c.enabled = append(c.enabled, s[1] == 1)
		}
		cases = append(cases, c)
	}
	for _, s0 := range layerStates {
		for outcome := 0; outcome < 3; outcome++ {
			for p := -1; p < kinds; p++ {
				add([][2]int{s0}, outcome, p)
			}
		}
		for _, s1 := range layerStates {
			for outcome := 0; outcome < 3; outcome++ {
				for p := -1; p < 2*kinds; p++ {
					add([][2]int{s0, s1}, outcome, p)
				}
			}
		}
	}
	rng := rand.New(rand.NewPCG(38, 3))
	for n := 0; n < 20000; n++ {
		states := [][2]int{
			layerStates[rng.IntN(len(layerStates))],
			layerStates[rng.IntN(len(layerStates))],
			layerStates[rng.IntN(len(layerStates))],
		}
		add(states, rng.IntN(3), rng.IntN(3*kinds+1)-1)
	}
	for _, c := range cases {
		wantLog, wantRes, wantErr, wantRec := c.run(t, false)
		gotLog, gotRes, gotErr, gotRec := c.run(t, true)
		if !slices.Equal(gotLog, wantLog) || gotRes != wantRes || gotErr != wantErr || gotRec != wantRec {
			t.Fatalf("case %+v:\n woven     %q -> (%v, %v) panic %v\n reference %q -> (%v, %v) panic %v",
				c, gotLog, gotRes, gotErr, gotRec, wantLog, wantRes, wantErr, wantRec)
		}
	}
}

// TestBindOncePerGeneration pins when the weaver calls Bind: once per
// handle and generation, on the first call after a Register, Unregister
// or SetComponentEnabled bump, never on a steady-state call and never
// while the component's interception is off. Each aspect of a chain,
// plain or with around advice, sees only its own binding.
func TestBindOncePerGeneration(t *testing.T) {
	for _, around := range []bool{false, true} {
		w := NewWeaver(nil)
		binds := map[string]int{}
		mk := func(name string, order int) *Aspect {
			check := func(jp *JoinPoint) {
				if want := name + ":" + jp.Component; jp.Bound != want {
					t.Errorf("around=%v: %s advice saw Bound %v, want %s", around, name, jp.Bound, want)
				}
			}
			a := &Aspect{
				Name: name, Order: order, Pointcut: MustPointcut("within(*)"),
				Bind: func(component string) any {
					binds[name+":"+component]++
					return name + ":" + component
				},
				Before: check, AfterReturning: check, After: check,
			}
			if around {
				a.Around = func(jp *JoinPoint, proceed Proceed) (any, error) {
					check(jp)
					res, err := proceed()
					check(jp)
					return res, err
				}
			}
			return a
		}
		for i, name := range []string{"outer", "inner"} {
			if err := w.Register(mk(name, i)); err != nil {
				t.Fatal(err)
			}
		}
		c := w.Weave("c", "M", okFunc(nil))
		d := w.Weave("d", "M", okFunc(nil))
		w.SetComponentEnabled("d", false)
		calls := func(fn Func, n int) {
			for i := 0; i < n; i++ {
				if _, err := fn(); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := func(step string, n int) {
			t.Helper()
			if binds["outer:c"] != n || binds["inner:c"] != n {
				t.Fatalf("around=%v, %s: c bound %d/%d times, want %d", around, step, binds["outer:c"], binds["inner:c"], n)
			}
			if binds["outer:d"] != 0 || binds["inner:d"] != 0 {
				t.Fatalf("around=%v, %s: disabled component d was bound", around, step)
			}
		}
		calls(c, 10)
		calls(d, 10)
		want("steady state", 1)
		if err := w.Register(&Aspect{Name: "other", Pointcut: MustPointcut("within(x)"), Before: func(*JoinPoint) {}}); err != nil {
			t.Fatal(err)
		}
		calls(c, 10)
		calls(d, 10)
		want("after Register", 2)
		w.Unregister("other")
		calls(c, 10)
		want("after Unregister", 3)
		w.SetComponentEnabled("c", false)
		calls(c, 10)
		want("while c is off", 3)
		w.SetComponentEnabled("c", true)
		calls(c, 10)
		calls(d, 10)
		want("after SetComponentEnabled", 4)
	}
}
