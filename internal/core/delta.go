package core

import (
	"repro/internal/jmx"
	"repro/internal/jvmheap"
	"repro/internal/monitor"
)

// DeltaRecorder implements the paper's per-invocation measurement
// verbatim: "the AC has two advices: before and after the application
// component execution. The idea is to measure every resource before and
// after a component is used. In this way, we can know how much resource
// has been used by the component. If the component has a resource
// consumption bug, the resource available after the execution will be
// lower than before."
//
// The before advice snapshots the heap's retained bytes; the after advice
// reads them again and accumulates the delta per component. Under
// concurrent load the single-invocation delta is noisy (other requests
// allocate in between) — which is exactly why the paper (and this
// framework) also keeps the object-size sampling path; the recorder's
// accumulated deltas converge to the right per-component attribution over
// many requests because unrelated allocations cancel out in expectation.
// Recording is lock-free on both advice sides and allocation-free: every
// flow the container runs (the request and its bound connection)
// implements flowMarker, so the before-advice snapshot lives in an inline
// slot on the flow object itself, and the after-advice accumulates into
// the component's cell of the shared table. Flows without a mark slot are
// not measured.
type DeltaRecorder struct {
	table *monitor.Table
	heap  *jvmheap.Heap
}

// flowMarker is the inline per-flow scratch slot contract; servlet.Request
// and sqldb.Conn implement it.
type flowMarker interface {
	SetFlowMark(int64)
	FlowMark() (int64, bool)
	ClearFlowMark()
}

// NewDeltaRecorder creates a recorder over heap accumulating into table.
func NewDeltaRecorder(table *monitor.Table, heap *jvmheap.Heap) *DeltaRecorder {
	return &DeltaRecorder{table: table, heap: heap}
}

// before snapshots the resource level for a flow.
func (d *DeltaRecorder) before(key any) {
	if m, ok := key.(flowMarker); ok {
		m.SetFlowMark(d.heap.Stats().Retained)
	}
}

// after accumulates the flow's delta into the executing component's cell.
func (d *DeltaRecorder) after(cell *monitor.Cell, key any) {
	m, ok := key.(flowMarker)
	if !ok {
		return
	}
	before, set := m.FlowMark()
	if !set {
		return
	}
	m.ClearFlowMark()
	cell.AddDelta(d.heap.Stats().Retained - before)
}

// measuredDelta reports whether any execution's delta was recorded in c.
func measuredDelta(c *monitor.Cell) bool {
	_, n := c.Delta()
	return n > 0
}

// DeltaOf returns the accumulated retained-bytes delta attributed to
// component and the number of observations.
func (d *DeltaRecorder) DeltaOf(component string) (total int64, observations int64) {
	if c := d.table.Lookup(component); c != nil {
		return c.Delta()
	}
	return 0, 0
}

// Components lists components with recorded deltas, sorted.
func (d *DeltaRecorder) Components() []string { return d.table.Names(measuredDelta) }

// Totals returns a copy of all accumulated deltas.
func (d *DeltaRecorder) Totals() map[string]int64 {
	out := make(map[string]int64)
	d.table.Each(func(c *monitor.Cell) {
		if total, n := c.Delta(); n > 0 {
			out[c.Name()] = total
		}
	})
	return out
}

// Bean exposes the recorder as a monitoring agent.
func (d *DeltaRecorder) Bean() *jmx.Bean {
	return jmx.NewBean("per-invocation heap delta monitoring agent").
		Attr("Components", "components with recorded deltas", func() any { return d.Components() }).
		Op("DeltaOf", "accumulated retained-bytes delta of the named component", func(args ...any) (any, error) {
			name, err := stringArg(args)
			if err != nil {
				return nil, err
			}
			total, _ := d.DeltaOf(name)
			return total, nil
		}).
		Op("All", "accumulated deltas per component", func(...any) (any, error) {
			return d.Totals(), nil
		})
}

// ObjectName returns the recorder's agent name.
func (d *DeltaRecorder) ObjectName() jmx.ObjectName {
	return jmx.MustObjectName("monitoring:agent=HeapDelta")
}
