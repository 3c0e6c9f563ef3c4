package monitor

import (
	"time"

	"repro/internal/jmx"
)

// InvocationStats aggregates the executions of one component.
type InvocationStats struct {
	Count         int64
	Failures      int64
	TotalDuration time.Duration
}

// MeanDuration returns the mean execution time (0 when never invoked).
func (s InvocationStats) MeanDuration() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.TotalDuration / time.Duration(s.Count)
}

// InvocationAgent reports component executions and their outcomes, as
// the Aspect Component records them into the cells (Cell.Record). Its
// counters are the usage-frequency axis of the paper's
// resource-consumption × usage map, and its failure counts feed the
// Pinpoint-style baseline.
type InvocationAgent struct {
	table *Table
	bean  *jmx.Bean
}

// NewInvocationAgent creates the invocation agent over table.
func NewInvocationAgent(table *Table) *InvocationAgent {
	a := &InvocationAgent{table: table}
	a.bean = jmx.NewBean("per-component invocation monitoring agent").
		Attr("Total", "executions across all components", func() any { return a.Total() }).
		Attr("Components", "component names seen so far", func() any { return a.Components() }).
		Op("CountOf", "executions of the named component", func(args ...any) (any, error) {
			name, err := oneStringArg(args)
			if err != nil {
				return nil, err
			}
			return a.StatsOf(name).Count, nil
		}).
		Op("All", "execution counts per component", func(...any) (any, error) {
			out := make(map[string]int64)
			for c, st := range a.All() {
				out[c] = st.Count
			}
			return out, nil
		})
	return a
}

// invoked reports whether the AC has recorded an execution of c.
func invoked(c *Cell) bool { return c.count.Load() > 0 }

// StatsOf returns the stats of component.
func (a *InvocationAgent) StatsOf(component string) InvocationStats {
	if c := a.table.Lookup(component); c != nil {
		return c.Stats()
	}
	return InvocationStats{}
}

// Total returns the execution count across all components.
func (a *InvocationAgent) Total() int64 {
	var n int64
	a.table.Each(func(c *Cell) { n += c.count.Load() })
	return n
}

// Components lists the components executed so far, sorted.
func (a *InvocationAgent) Components() []string { return a.table.Names(invoked) }

// All returns the stats of every component executed so far.
func (a *InvocationAgent) All() map[string]InvocationStats {
	out := make(map[string]InvocationStats)
	a.table.Each(func(c *Cell) {
		if invoked(c) {
			out[c.name] = c.Stats()
		}
	})
	return out
}

// ObjectName implements Agent.
func (a *InvocationAgent) ObjectName() jmx.ObjectName { return AgentName("Invocation") }

// Bean implements Agent.
func (a *InvocationAgent) Bean() *jmx.Bean { return a.bean }
