package aspect

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Proceed continues an around-advised execution with the original
// arguments, running inner advice layers and finally the component itself.
type Proceed func() (any, error)

// Aspect bundles a pointcut with advice bodies, mirroring an AspectJ
// aspect. Any subset of the advice fields may be set. Aspects are enabled
// on registration and can be switched at runtime — this is the paper's
// "activate or deactivate the AC in runtime" capability that keeps
// monitoring overhead controllable.
type Aspect struct {
	// Name identifies the aspect in the weaver and over JMX.
	Name string
	// Pointcut selects the join points this aspect advises.
	Pointcut *Pointcut
	// Order sets precedence: lower values are outermost (their Before
	// runs first, their After runs last). Equal orders apply in
	// registration order.
	Order int

	// Before runs before the execution proceeds.
	Before func(*JoinPoint)
	// Around wraps the execution; it must call proceed (directly or
	// not at all, in which case the execution is skipped and the
	// advice's return is used).
	Around func(*JoinPoint, Proceed) (any, error)
	// AfterReturning runs after a successful execution.
	AfterReturning func(*JoinPoint)
	// AfterThrowing runs after a failed execution (non-nil error).
	AfterThrowing func(*JoinPoint)
	// After runs after the execution regardless of outcome (finally).
	After func(*JoinPoint)

	// Bind, when set, is called once per woven handle and configuration
	// generation, while the component's interception is on, with the
	// component the handle advises. Its result reaches this aspect's
	// advice bodies as JoinPoint.Bound, so per-component state is looked
	// up at weave time rather than on every execution.
	Bind func(component string) any

	enabled atomic.Bool
}

// Validate reports whether the aspect is well-formed: a name, a pointcut
// and at least one advice body.
func (a *Aspect) Validate() error {
	if a.Name == "" {
		return errors.New("aspect: aspect without name")
	}
	if a.Pointcut == nil {
		return fmt.Errorf("aspect: aspect %q without pointcut", a.Name)
	}
	if a.Before == nil && a.Around == nil && a.AfterReturning == nil &&
		a.AfterThrowing == nil && a.After == nil {
		return fmt.Errorf("aspect: aspect %q has no advice", a.Name)
	}
	return nil
}

// Enabled reports whether the aspect's advice currently fires.
func (a *Aspect) Enabled() bool { return a.enabled.Load() }

// SetEnabled switches the aspect at runtime. Woven components observe the
// change on their next invocation; no re-weaving happens.
func (a *Aspect) SetEnabled(on bool) { a.enabled.Store(on) }
