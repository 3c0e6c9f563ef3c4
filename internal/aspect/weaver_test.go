package aspect

import (
	"errors"
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
	count := 0
	a := &Aspect{
		Name:     "counter",
		Pointcut: MustPointcut("within(c)"),
		Before:   func(*JoinPoint) { count++ },
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
	if count != 2 {
		t.Fatalf("advice fired %d times, want 2", count)
	}
	if a.Executions() != 2 {
		t.Fatalf("Executions = %d", a.Executions())
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

func TestFindAndAspects(t *testing.T) {
	w := NewWeaver(nil)
	a := &Aspect{Name: "a", Pointcut: MustPointcut("within(c)"), Before: func(*JoinPoint) {}}
	if err := w.Register(a); err != nil {
		t.Fatal(err)
	}
	got, ok := w.Find("a")
	if !ok || got != a {
		t.Fatal("Find failed")
	}
	if _, ok := w.Find("nope"); ok {
		t.Fatal("Find found ghost")
	}
	if len(w.Aspects()) != 1 {
		t.Fatal("Aspects count wrong")
	}
	if !w.Unregister("a") || w.Unregister("a") {
		t.Fatal("Unregister bookkeeping wrong")
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
