package monitor

import (
	"repro/internal/jmx"
)

// LiveKind selects the live count a LiveAgent keeps.
type LiveKind int

const (
	// Threads counts live threads: unterminated threads are one of the
	// classic aging vectors the paper lists.
	Threads LiveKind = iota
	// Handles counts live resource handles: database connections held
	// past their request, file descriptors, session handles — the
	// non-heap leak vectors the aging literature catalogues next to
	// memory.
	Handles
)

// liveNames names each kind's agent, and the resource in its bean's
// descriptions (singular and plural).
var liveNames = [...]struct{ agent, one, many string }{
	Threads: {"Thread", "thread", "threads"},
	Handles: {"Handle", "resource-handle", "handles"},
}

// LiveAgent tracks one kind of live resource per component. A leaking
// component shows a monotonically growing live count here while healthy
// components return every resource they acquire.
type LiveAgent struct {
	table *Table
	kind  LiveKind
	bean  *jmx.Bean
}

// NewLiveAgent creates the agent of kind k over table.
func NewLiveAgent(table *Table, k LiveKind) *LiveAgent {
	a := &LiveAgent{table: table, kind: k}
	n := liveNames[k]
	a.bean = jmx.NewBean("per-component live "+n.one+" monitoring agent").
		Attr("TotalLive", "live "+n.many+" across all components", func() any { return a.TotalLive() }).
		Op("LiveOf", "live "+n.many+" owned by the named component", func(args ...any) (any, error) {
			name, err := oneStringArg(args)
			if err != nil {
				return nil, err
			}
			return a.LiveOf(name), nil
		}).
		Op("All", "live "+n.many+" per component", func(...any) (any, error) {
			return a.All(), nil
		})
	return a
}

// Acquire records component acquiring one resource.
func (a *LiveAgent) Acquire(component string) {
	a.table.Cell(component).live[a.kind].Add(1)
}

// Release records component releasing one resource. Releasing more than
// was acquired panics: it means the instrumentation is miscounting, which
// must not be papered over.
func (a *LiveAgent) Release(component string) {
	c := a.table.Lookup(component)
	for c != nil {
		l := c.live[a.kind].Load()
		if l == 0 {
			break
		}
		if c.live[a.kind].CompareAndSwap(l, l-1) {
			return
		}
	}
	panic("monitor: " + component + " released a " + liveNames[a.kind].one + " it never acquired")
}

// LiveOf returns the live count of component.
func (a *LiveAgent) LiveOf(component string) int64 {
	if c := a.table.Lookup(component); c != nil {
		return c.Live(a.kind)
	}
	return 0
}

// TotalLive returns the live count across all components. It is the sum
// of the per-component counts — each non-negative by Release's CAS — so
// the total can never transiently read negative the way a separately
// maintained global counter could.
func (a *LiveAgent) TotalLive() int64 {
	var n int64
	a.table.Each(func(c *Cell) { n += c.Live(a.kind) })
	return n
}

// All returns the per-component live counts (components holding none are
// omitted).
func (a *LiveAgent) All() map[string]int64 {
	out := make(map[string]int64)
	a.table.Each(func(c *Cell) {
		if n := c.Live(a.kind); n > 0 {
			out[c.name] = n
		}
	})
	return out
}

// ObjectName implements Agent.
func (a *LiveAgent) ObjectName() jmx.ObjectName { return AgentName(liveNames[a.kind].agent) }

// Bean implements Agent.
func (a *LiveAgent) Bean() *jmx.Bean { return a.bean }
