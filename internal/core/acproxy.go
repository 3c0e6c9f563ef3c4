package core

import (
	"repro/internal/jmx"
	"repro/internal/monitor"
)

// acProxyBean builds the AC Proxy of one component: the management
// channel between the manager (or the external front-end) and the
// component's Aspect Component. Through it, interception is activated and
// deactivated at runtime and the component's live statistics are read
// from its cell — "from asking some information like how many requests
// have used the component to activating or deactivating the AC in
// runtime" (§III.B.1).
func (f *Framework) acProxyBean(cell *monitor.Cell) *jmx.Bean {
	component := cell.Name()
	return jmx.NewBean("Aspect Component proxy for "+component).
		AttrRW("Enabled", "whether this component's interception is active",
			func() any { return f.weaver.ComponentEnabled(component) },
			func(v any) error {
				on, ok := v.(bool)
				if !ok {
					return jmx.ErrNoSuchAttribute // wrong type reads as a bad write
				}
				f.weaver.SetComponentEnabled(component, on)
				return nil
			}).
		Attr("Invocations", "executions observed by the AC", func() any {
			return cell.Stats().Count
		}).
		Attr("Failures", "failed executions observed by the AC", func() any {
			return cell.Stats().Failures
		}).
		Attr("MeanServiceSeconds", "mean observed service time", func() any {
			return cell.Stats().MeanDuration().Seconds()
		}).
		Attr("ObjectSizeBytes", "current retained size of the component object", func() any {
			if n, ok := f.objSize.SizeOf(cell); ok {
				return n
			}
			return int64(-1)
		}).
		Attr("CPUSeconds", "CPU time charged to the component", func() any {
			return cell.CPU().Seconds()
		}).
		Attr("LiveThreads", "live threads owned by the component", func() any {
			return cell.Live(monitor.Threads)
		}).
		Op("MicroReboot", "release the component's retained memory", func(...any) (any, error) {
			return f.MicroReboot(component), nil
		})
}
