package monitor

import (
	"time"

	"repro/internal/jmx"
)

// CPUAgent reports per-component CPU time. In the simulation each
// top-level execution's modelled service time is charged to the component
// that executed it (Cell.Record with top set); a CPU-hogging aging bug
// therefore shows up as one component's share growing without a matching
// workload change — the CPU analogue of the paper's future-work direction.
type CPUAgent struct {
	table *Table
	bean  *jmx.Bean
}

// NewCPUAgent creates the CPU accounting agent over table.
func NewCPUAgent(table *Table) *CPUAgent {
	a := &CPUAgent{table: table}
	a.bean = jmx.NewBean("per-component CPU time monitoring agent").
		Attr("TotalSeconds", "CPU seconds charged across all components", func() any {
			return a.Total().Seconds()
		}).
		Op("TimeOf", "CPU seconds charged to the named component", func(args ...any) (any, error) {
			name, err := oneStringArg(args)
			if err != nil {
				return nil, err
			}
			return a.TimeOf(name).Seconds(), nil
		}).
		Op("All", "CPU seconds per component", func(...any) (any, error) {
			out := make(map[string]float64)
			for c, d := range a.All() {
				out[c] = d.Seconds()
			}
			return out, nil
		})
	return a
}

// TimeOf returns the CPU time charged to component.
func (a *CPUAgent) TimeOf(component string) time.Duration {
	if c := a.table.Lookup(component); c != nil {
		return c.CPU()
	}
	return 0
}

// Total returns the CPU time charged across all components.
func (a *CPUAgent) Total() time.Duration {
	var d time.Duration
	a.table.Each(func(c *Cell) { d += c.CPU() })
	return d
}

// All returns the CPU time of every component charged any.
func (a *CPUAgent) All() map[string]time.Duration {
	out := make(map[string]time.Duration)
	a.table.Each(func(c *Cell) {
		if d := c.CPU(); d > 0 {
			out[c.name] = d
		}
	})
	return out
}

// ObjectName implements Agent.
func (a *CPUAgent) ObjectName() jmx.ObjectName { return AgentName("CPU") }

// Bean implements Agent.
func (a *CPUAgent) Bean() *jmx.Bean { return a.bean }
