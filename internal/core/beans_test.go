package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/aspect"
	"repro/internal/faultinject"
	"repro/internal/jmx"
	"repro/internal/jvmheap"
	"repro/internal/monitor"
)

// pinFlow is one request flow the way the container's request presents
// itself to the AC: it reports its service cost and latency, and carries
// the inline flow-mark slot the heap-delta recorder uses.
type pinFlow struct {
	cost, latency time.Duration
	mark          int64
	marked        bool
}

func (p *pinFlow) TraceKey() any                  { return p }
func (p *pinFlow) ReportedCost() time.Duration    { return p.cost }
func (p *pinFlow) ReportedLatency() time.Duration { return p.latency }
func (p *pinFlow) SetFlowMark(v int64)            { p.mark, p.marked = v, true }
func (p *pinFlow) FlowMark() (int64, bool)        { return p.mark, p.marked }
func (p *pinFlow) ClearFlowMark()                 { p.marked = false }

// namedOps are the bean operations that take one component name.
var namedOps = map[string]bool{"CountOf": true, "TimeOf": true, "LiveOf": true, "Measure": true, "DeltaOf": true}

// dumpBean renders every attribute and operation of the bean registered
// under name, one line each, invoking the name-taking operations once per
// entry of components.
func dumpBean(t *testing.T, server *jmx.Server, name jmx.ObjectName, components []string) string {
	t.Helper()
	mb, err := server.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	b := mb.(*jmx.Bean)
	var out strings.Builder
	fmt.Fprintf(&out, "%s: %s\n", name, b.Description())
	for _, a := range b.AttributeNames() {
		v, err := b.GetAttribute(a)
		fmt.Fprintf(&out, "  attr %s (%s) = %v %v\n", a, b.AttributeDescription(a), v, err)
	}
	for _, op := range b.OperationNames() {
		fmt.Fprintf(&out, "  op %s (%s)\n", op, b.OperationDescription(op))
		if !namedOps[op] {
			v, err := b.Invoke(op)
			fmt.Fprintf(&out, "    () = %v %v\n", v, err)
			continue
		}
		for _, c := range components {
			v, err := b.Invoke(op, c)
			fmt.Fprintf(&out, "    (%s) = %v %v\n", c, v, err)
		}
	}
	return out.String()
}

// TestAgentBeansPinned fixes the JMX answers of the six per-component
// agents and the AC proxy after a fixed workload: an instrumented
// component, a woven but uninstrumented one with a failing execution, and
// one the AC never observes that only the thread- and handle-leak
// injectors touch. Each agent must list exactly the components it
// recorded, whatever the others saw.
func TestAgentBeansPinned(t *testing.T) {
	heap := jvmheap.New(1<<24, nil)
	w := aspect.NewWeaver(nil)
	f, err := New(Options{Weaver: w, Heap: heap, Pointcut: "within(svc.*)"})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InstrumentComponent("svc.inst", &soakTarget{buf: make([]byte, 4096)}); err != nil {
		t.Fatal(err)
	}
	threads := &faultinject.ThreadLeak{Component: "leak.c", N: 1, Agent: f.ThreadAgent(), Seed: 7}
	handles := &faultinject.HandleLeak{Component: "leak.c", N: 1, Agent: f.HandleAgent(), Seed: 7}
	for _, a := range []*aspect.Aspect{threads.Aspect(), handles.Aspect()} {
		if err := w.Register(a); err != nil {
			t.Fatal(err)
		}
	}
	inst := w.Weave("svc.inst", "Service", func(args ...any) (any, error) {
		if args[1].(bool) {
			return nil, errors.New("boom")
		}
		return nil, heap.Allocate("svc.inst", 512)
	})
	woven := w.Weave("svc.woven", "Service", func(args ...any) (any, error) {
		if args[1].(bool) {
			return nil, errors.New("boom")
		}
		return nil, nil
	})
	leak := w.Weave("leak.c", "Service", func(...any) (any, error) { return nil, nil })

	for i := 0; i < 4; i++ {
		inst(&pinFlow{cost: 2 * time.Millisecond, latency: 3 * time.Millisecond}, i == 3)
	}
	woven(&pinFlow{cost: time.Millisecond}, false)
	woven(&pinFlow{cost: time.Millisecond, latency: 5 * time.Millisecond}, true)
	for i := 0; i < 6; i++ {
		leak()
	}

	comps := []string{"svc.inst", "svc.woven", "leak.c", "ghost"}
	var got strings.Builder
	for _, agent := range []string{"Invocation", "CPU", "Thread", "Handle", "ObjectSize", "HeapDelta"} {
		got.WriteString(dumpBean(t, f.Server(), monitor.AgentName(agent), comps))
	}
	got.WriteString(dumpBean(t, f.Server(), ACProxyName("svc.inst"), comps))

	const want = `monitoring:agent=Invocation: per-component invocation monitoring agent
  attr Components (component names seen so far) = [svc.inst svc.woven] <nil>
  attr Total (executions across all components) = 6 <nil>
  op All (execution counts per component)
    () = map[svc.inst:4 svc.woven:2] <nil>
  op CountOf (executions of the named component)
    (svc.inst) = 4 <nil>
    (svc.woven) = 2 <nil>
    (leak.c) = 0 <nil>
    (ghost) = 0 <nil>
monitoring:agent=CPU: per-component CPU time monitoring agent
  attr TotalSeconds (CPU seconds charged across all components) = 0.01 <nil>
  op All (CPU seconds per component)
    () = map[svc.inst:0.008 svc.woven:0.002] <nil>
  op TimeOf (CPU seconds charged to the named component)
    (svc.inst) = 0.008 <nil>
    (svc.woven) = 0.002 <nil>
    (leak.c) = 0 <nil>
    (ghost) = 0 <nil>
monitoring:agent=Thread: per-component live thread monitoring agent
  attr TotalLive (live threads across all components) = 5 <nil>
  op All (live threads per component)
    () = map[leak.c:5] <nil>
  op LiveOf (live threads owned by the named component)
    (svc.inst) = 0 <nil>
    (svc.woven) = 0 <nil>
    (leak.c) = 5 <nil>
    (ghost) = 0 <nil>
monitoring:agent=Handle: per-component live resource-handle monitoring agent
  attr TotalLive (live handles across all components) = 3 <nil>
  op All (live handles per component)
    () = map[leak.c:3] <nil>
  op LiveOf (live handles owned by the named component)
    (svc.inst) = 0 <nil>
    (svc.woven) = 0 <nil>
    (leak.c) = 3 <nil>
    (ghost) = 0 <nil>
monitoring:agent=ObjectSize: component object size monitoring agent
  attr Policy (reference-following policy) = one-level <nil>
  attr Targets (registered component names) = [svc.inst] <nil>
  op Measure (retained size of the named component in bytes)
    (svc.inst) = 4136 <nil>
    (svc.woven) = 0 monitor: no size target for component "svc.woven"
    (leak.c) = 0 monitor: no size target for component "leak.c"
    (ghost) = 0 monitor: no size target for component "ghost"
  op MeasureAll (retained size of every registered component)
    () = map[svc.inst:4136] <nil>
monitoring:agent=HeapDelta: per-invocation heap delta monitoring agent
  attr Components (components with recorded deltas) = [svc.inst svc.woven] <nil>
  op All (accumulated deltas per component)
    () = map[svc.inst:1536 svc.woven:0] <nil>
  op DeltaOf (accumulated retained-bytes delta of the named component)
    (svc.inst) = 1536 <nil>
    (svc.woven) = 0 <nil>
    (leak.c) = 0 <nil>
    (ghost) = 0 <nil>
aging:component=svc.inst,type=ACProxy: Aspect Component proxy for svc.inst
  attr CPUSeconds (CPU time charged to the component) = 0.008 <nil>
  attr Enabled (whether this component's interception is active) = true <nil>
  attr Failures (failed executions observed by the AC) = 1 <nil>
  attr Invocations (executions observed by the AC) = 4 <nil>
  attr LiveThreads (live threads owned by the component) = 0 <nil>
  attr MeanServiceSeconds (mean observed service time) = 0.002 <nil>
  attr ObjectSizeBytes (current retained size of the component object) = 4136 <nil>
  op MicroReboot (release the component's retained memory)
    () = 0 <nil>
`
	if got.String() != want {
		t.Fatalf("bean answers moved:\n%s", got.String())
	}
}

// TestCellTableConcurrency records from many goroutines while sampling
// rounds run and the management plane reads every per-component bean, and
// instruments a component mid-run. Run it under -race; the final counts
// must add up exactly.
func TestCellTableConcurrency(t *testing.T) {
	const recorders, perRecorder = 4, 300
	heap := jvmheap.New(1<<30, nil)
	w := aspect.NewWeaver(nil)
	f, err := New(Options{Weaver: w, Heap: heap})
	if err != nil {
		t.Fatal(err)
	}
	comps := []string{"svc.a", "svc.b", "svc.late"}
	if err := f.InstrumentComponent("svc.a", &soakTarget{buf: make([]byte, 64)}); err != nil {
		t.Fatal(err)
	}
	fns := make([]func(...any) (any, error), len(comps))
	for i, c := range comps {
		c := c
		fns[i] = w.Weave(c, "Service", func(...any) (any, error) { return nil, heap.Allocate(c, 8) })
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < recorders; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			flow := &pinFlow{cost: time.Microsecond, latency: 2 * time.Microsecond}
			for i := 0; i < perRecorder; i++ {
				if _, err := fns[i%len(fns)](flow); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var side sync.WaitGroup
	side.Add(2)
	go func() { // sampler
		defer side.Done()
		now := time.Unix(0, 0)
		for {
			select {
			case <-done:
				return
			default:
			}
			now = now.Add(time.Second)
			f.Manager().Sample(now)
		}
	}()
	go func() { // management-plane reader
		defer side.Done()
		names := []jmx.ObjectName{ACProxyName("svc.a")}
		for _, a := range []string{"Invocation", "CPU", "Thread", "Handle", "ObjectSize", "HeapDelta"} {
			names = append(names, monitor.AgentName(a))
		}
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, n := range names {
				mb, err := f.Server().Lookup(n)
				if err != nil {
					t.Error(err)
					return
				}
				for _, a := range mb.AttributeNames() {
					_, _ = mb.GetAttribute(a)
				}
				for _, op := range mb.OperationNames() {
					if op != "MicroReboot" {
						_, _ = mb.Invoke(op, "svc.b")
					}
				}
			}
		}
	}()
	if err := f.InstrumentComponent("svc.late", &soakTarget{}); err != nil {
		t.Error(err)
	}
	wg.Wait()
	close(done)
	side.Wait()

	total := int64(recorders * perRecorder)
	if got := f.InvocationAgent().Total(); got != total {
		t.Fatalf("invocations = %d, want %d", got, total)
	}
	if got := f.CPUAgent().Total(); got != time.Duration(total)*time.Microsecond {
		t.Fatalf("CPU total = %v", got)
	}
	var deltas int64
	for _, c := range comps {
		_, n := f.DeltaRecorder().DeltaOf(c)
		deltas += n
	}
	if deltas != total {
		t.Fatalf("delta observations = %d, want %d", deltas, total)
	}
	f.Manager().Sample(time.Unix(1<<20, 0))
	for _, c := range []string{"svc.a", "svc.late"} {
		if got, err := f.Server().GetAttribute(ACProxyName(c), "Invocations"); err != nil || got.(int64) != f.InvocationAgent().StatsOf(c).Count {
			t.Fatalf("%s proxy invocations = %v, %v", c, got, err)
		}
	}
}
