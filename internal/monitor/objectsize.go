package monitor

import (
	"fmt"

	"repro/internal/jmx"
	"repro/internal/objsize"
)

// ObjectSizeAgent measures the retained size of registered component
// objects — the reproduction of the paper's agent that "allows us to know
// the real size of a Java Object". Components register their live object
// in their cell; the agent measures it on demand with the configured
// depth policy.
type ObjectSizeAgent struct {
	table *Table
	sizer *objsize.Sizer
	bean  *jmx.Bean
}

// NewObjectSizeAgent creates an agent over table measuring with the given
// policy.
func NewObjectSizeAgent(table *Table, policy objsize.Policy) *ObjectSizeAgent {
	a := &ObjectSizeAgent{table: table, sizer: objsize.New(policy)}
	a.bean = jmx.NewBean("component object size monitoring agent").
		Attr("Policy", "reference-following policy", func() any { return policy.String() }).
		Attr("Targets", "registered component names", func() any { return a.Components() }).
		Op("Measure", "retained size of the named component in bytes", func(args ...any) (any, error) {
			name, err := oneStringArg(args)
			if err != nil {
				return nil, err
			}
			return a.Measure(name)
		}).
		Op("MeasureAll", "retained size of every registered component", func(...any) (any, error) {
			return a.MeasureAll(), nil
		})
	return a
}

// RegisterTarget makes the live object of component measurable. Passing a
// pointer to the component's state is the caller's responsibility; the
// agent never copies it.
func (a *ObjectSizeAgent) RegisterTarget(component string, target any) {
	if target == nil {
		panic("monitor: nil object-size target")
	}
	a.table.Cell(component).target.Store(&target)
}

// UnregisterTarget removes a component's target.
func (a *ObjectSizeAgent) UnregisterTarget(component string) {
	if c := a.table.Lookup(component); c != nil {
		c.target.Store(nil)
	}
}

func hasTarget(c *Cell) bool { return c.target.Load() != nil }

// Components lists registered component names, sorted; empty, never nil,
// so the Targets attribute reads [] rather than null over JSON.
func (a *ObjectSizeAgent) Components() []string {
	return append([]string{}, a.table.Names(hasTarget)...)
}

// SizeOf measures the target registered in c; ok is false when there is
// none.
func (a *ObjectSizeAgent) SizeOf(c *Cell) (n int64, ok bool) {
	if target := c.Target(); target != nil {
		return a.sizer.Of(target), true
	}
	return 0, false
}

// Measure returns the current retained size of the named component.
func (a *ObjectSizeAgent) Measure(component string) (int64, error) {
	if c := a.table.Lookup(component); c != nil {
		if n, ok := a.SizeOf(c); ok {
			return n, nil
		}
	}
	return 0, fmt.Errorf("monitor: no size target for component %q", component)
}

// MeasureAll measures every registered component.
func (a *ObjectSizeAgent) MeasureAll() map[string]int64 {
	out := make(map[string]int64)
	a.table.Each(func(c *Cell) {
		if n, ok := a.SizeOf(c); ok {
			out[c.name] = n
		}
	})
	return out
}

// ObjectName implements Agent.
func (a *ObjectSizeAgent) ObjectName() jmx.ObjectName { return AgentName("ObjectSize") }

// Bean implements Agent.
func (a *ObjectSizeAgent) Bean() *jmx.Bean { return a.bean }
