// Package core implements the paper's monitoring framework: the Aspect
// Component (AC) whose before/after advice observes every component
// execution, the AC Proxy beans that let the management plane control
// interception per component at runtime, and the JMX Manager Agent that
// collects per-component resource metrics, builds the resource-consumption
// × usage-frequency map and determines the most likely aging root cause.
//
// The framework is application-agnostic: it attaches to any set of
// components woven through the aspect weaver, with no changes to
// application source — the property the paper gets from AspectJ load-time
// weaving and this reproduction gets from registration-time weaving.
//
// The manager agent is split in two: Collector is the node-local half
// (component registry, sampling rounds, each component's latest round) and
// Manager embeds it, adding the management plane — root-cause queries,
// the online detector bank, notifications and the JMX bean. A
// single-node deployment only ever sees the Manager; a clustered one
// ships each Collector's rounds to a cluster aggregator (see
// internal/cluster) through the SampleObserver subscription.
//
// Concurrency contract: the AC's advice runs on every invoking goroutine
// and records only into the executing component's cell of the shared
// monitor.Table, which the weaver binds to the advice once per chain
// resolution: atomic counters, so recording never blocks and is never
// blocked. The collector keeps each component's latest round, not its
// history, so a node's memory does not grow with its uptime. It has two
// locks, neither on the recording path: recsMu for the component registry
// (rare instrument/uninstrument) and sampleMu, which serialises sampling
// rounds (and the SampleObservers they feed, detectors and cluster
// forwarders included) and guards what they write; the root-cause
// queries read the latest round under it.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/aspect"
	"repro/internal/detect"
	"repro/internal/jmx"
	"repro/internal/jvmheap"
	"repro/internal/monitor"
	"repro/internal/objsize"
	"repro/internal/sim"
)

// JMX names of the framework's own beans.
const (
	// Domain is the JMX domain of the framework beans.
	Domain = "aging"
	// ACAspectName is the weaver name of the Aspect Component advice.
	ACAspectName = "core.AspectComponent"
)

// ManagerName returns the manager agent's object name.
func ManagerName() jmx.ObjectName {
	return jmx.MustObjectName(Domain + ":type=Manager")
}

// ACProxyName returns the AC Proxy object name of a component.
func ACProxyName(component string) jmx.ObjectName {
	return jmx.MustObjectName(Domain + ":type=ACProxy,component=" + component)
}

// costReporter is the contract through which the AC learns the simulated
// service time of an execution (the container's request implements it).
type costReporter interface {
	ReportedCost() time.Duration
}

// latencyReporter is the contract through which the AC learns the
// response latency of an execution — service time plus injected wait.
// When an argument reports a latency above its cost, the gap is
// contention or queueing: CPU accounting charges the cost, latency
// accounting records the full wait.
type latencyReporter interface {
	ReportedLatency() time.Duration
}

// Options configures a Framework.
type Options struct {
	// Weaver is the aspect weaver the application's components are
	// woven through. Required.
	Weaver *aspect.Weaver
	// Clock stamps samples and notifications (the weaver's clock when
	// nil).
	Clock sim.Clock
	// Heap, when non-nil, enables the memory agent and heap sampling.
	Heap *jvmheap.Heap
	// SampleInterval is the manager's sampling period (default 30s).
	SampleInterval time.Duration
	// Pointcut restricts which components the AC observes (default
	// "within(*)").
	Pointcut string
	// Node names this framework's node in a clustered deployment; the
	// collector stamps it on every round shipped to an aggregator. Leave
	// empty for a standalone single-node system.
	Node string
}

// Framework wires the agents, the AC and the manager together.
type Framework struct {
	clock  sim.Clock
	server *jmx.Server
	weaver *aspect.Weaver
	heap   *jvmheap.Heap

	// table holds every component's monitoring state; the agents below
	// are views over it.
	table       *monitor.Table
	objSize     *monitor.ObjectSizeAgent
	cpu         *monitor.CPUAgent
	threads     *monitor.LiveAgent
	handles     *monitor.LiveAgent
	invocations *monitor.InvocationAgent
	memory      *monitor.MemoryAgent
	deltas      *DeltaRecorder

	manager  *Manager
	acAspect *aspect.Aspect
	interval time.Duration
}

// New assembles a framework: it creates and registers the monitoring
// agents, installs the Aspect Component advice on the weaver, and
// registers the manager agent bean.
func New(opts Options) (*Framework, error) {
	if opts.Weaver == nil {
		return nil, errors.New("core: Options.Weaver is required")
	}
	clock := opts.Clock
	if clock == nil {
		clock = opts.Weaver.Clock()
	}
	server := jmx.NewServer(clock)
	interval := opts.SampleInterval
	if interval <= 0 {
		interval = 30 * time.Second
	}
	pc := opts.Pointcut
	if pc == "" {
		pc = "within(*)"
	}
	pointcut, err := aspect.ParsePointcut(pc)
	if err != nil {
		return nil, err
	}

	table := monitor.NewTable()
	f := &Framework{
		clock:       clock,
		server:      server,
		weaver:      opts.Weaver,
		heap:        opts.Heap,
		table:       table,
		objSize:     monitor.NewObjectSizeAgent(table, objsize.OneLevel),
		cpu:         monitor.NewCPUAgent(table),
		threads:     monitor.NewLiveAgent(table, monitor.Threads),
		handles:     monitor.NewLiveAgent(table, monitor.Handles),
		invocations: monitor.NewInvocationAgent(table),
		interval:    interval,
	}
	agents := []monitor.Agent{f.objSize, f.cpu, f.threads, f.handles, f.invocations}
	if opts.Heap != nil {
		f.memory = monitor.NewMemoryAgent(opts.Heap)
		f.deltas = NewDeltaRecorder(table, opts.Heap)
		agents = append(agents, f.memory, f.deltas)
	}
	if err := monitor.RegisterAll(server, agents...); err != nil {
		return nil, err
	}

	f.manager = newManager(f, opts.Node)
	if err := server.Register(ManagerName(), f.manager.bean()); err != nil {
		return nil, err
	}

	// The Aspect Component: one advice body serving as the per-component
	// AC. The weaver binds it to each component's cell when it resolves
	// the component's chain. The after advice records into the bound
	// cell: the heap delta and the invocation, whose cost is CPU time
	// when it ran at the top level.
	f.acAspect = &aspect.Aspect{
		Name:     ACAspectName,
		Order:    -10, // outside injectors so it observes their effects
		Pointcut: pointcut,
		Bind:     func(component string) any { return table.Cell(component) },
		After: func(jp *aspect.JoinPoint) {
			cell := jp.Bound.(*monitor.Cell)
			if f.deltas != nil && jp.Depth == 0 {
				f.deltas.after(cell, jp.Key())
			}
			var cost, latency time.Duration
			for _, arg := range jp.Args {
				if r, ok := arg.(costReporter); ok {
					if d := r.ReportedCost(); d > 0 {
						cost = d
					}
					if lr, ok := arg.(latencyReporter); ok {
						latency = lr.ReportedLatency()
					}
					break
				}
			}
			cell.Record(cost, latency, jp.Err != nil, jp.Depth == 0)
		},
	}
	if f.deltas != nil { // snapshot the heap level before each execution
		f.acAspect.Before = func(jp *aspect.JoinPoint) {
			if jp.Depth == 0 {
				f.deltas.before(jp.Key())
			}
		}
	}
	if err := opts.Weaver.Register(f.acAspect); err != nil {
		return nil, err
	}
	return f, nil
}

// Server returns the MBeanServer everything is registered on.
func (f *Framework) Server() *jmx.Server { return f.server }

// Manager returns the JMX Manager Agent.
func (f *Framework) Manager() *Manager { return f.manager }

// Collector returns the node-local collector half of the manager — the
// registry, sampling rounds and latest rounds. Cluster deployments subscribe a
// transport forwarder here to ship rounds to an aggregator.
func (f *Framework) Collector() *Collector { return f.manager.Collector }

// Node returns the framework's node identity ("" when standalone).
func (f *Framework) Node() string { return f.manager.Node() }

// Weaver returns the aspect weaver.
func (f *Framework) Weaver() *aspect.Weaver { return f.weaver }

// Clock returns the framework's time source.
func (f *Framework) Clock() sim.Clock { return f.clock }

// InvocationAgent exposes the invocation monitoring agent.
func (f *Framework) InvocationAgent() *monitor.InvocationAgent { return f.invocations }

// CPUAgent exposes the CPU monitoring agent.
func (f *Framework) CPUAgent() *monitor.CPUAgent { return f.cpu }

// ThreadAgent exposes the thread monitoring agent.
func (f *Framework) ThreadAgent() *monitor.LiveAgent { return f.threads }

// HandleAgent exposes the resource-handle monitoring agent.
func (f *Framework) HandleAgent() *monitor.LiveAgent { return f.handles }

// ObjectSizeAgent exposes the object-size monitoring agent.
func (f *Framework) ObjectSizeAgent() *monitor.ObjectSizeAgent { return f.objSize }

// DeltaRecorder exposes the per-invocation heap-delta agent (nil without a
// heap).
func (f *Framework) DeltaRecorder() *DeltaRecorder { return f.deltas }

// SetMonitoringEnabled switches the whole AC on or off at runtime, the
// coarse overhead control of the paper's §III.B.3.
func (f *Framework) SetMonitoringEnabled(on bool) { f.acAspect.SetEnabled(on) }

// MonitoringEnabled reports whether the AC advice is active.
func (f *Framework) MonitoringEnabled() bool { return f.acAspect.Enabled() }

// InstrumentComponent attaches the framework to one component: the
// manager samples it every round, its live object becomes measurable by the
// object-size agent, and an AC Proxy bean is registered for runtime
// control. Instrumenting a name twice fails and leaves the first
// instrumentation untouched.
func (f *Framework) InstrumentComponent(name string, target any) error {
	if name == "" || target == nil {
		return errors.New("core: InstrumentComponent needs a name and a live target")
	}
	cell, err := f.manager.addComponent(name, target)
	if err != nil {
		return err
	}
	if err := f.server.Register(ACProxyName(name), f.acProxyBean(cell)); err != nil {
		f.manager.removeComponent(name)
		return err
	}
	return nil
}

// AttachDetectors wires the streaming aging detectors into the manager's
// sampling rounds (see internal/detect and Manager.AttachDetectors).
func (f *Framework) AttachDetectors(cfg detect.Config) (*DetectorBank, error) {
	return f.manager.AttachDetectors(cfg)
}

// StartSampling schedules periodic manager sampling on the engine and
// returns a stop function.
func (f *Framework) StartSampling(engine *sim.Engine) (stop func()) {
	return engine.Every(f.interval, func(now time.Time) {
		f.manager.Sample(now)
	})
}

// releaser lets the framework free a component's retained leak buffer
// during a micro-reboot; components embedding a LeakStore satisfy it.
type releaser interface {
	Release() int
}

// NotifRejuvenation is emitted through the MBeanServer every time a
// component is micro-rebooted; Data carries the bytes reclaimed.
const NotifRejuvenation = "aging.rejuvenation"

// MicroReboot performs the surgical recovery the paper motivates with
// micro-rebooting: it releases the named component's retained memory (its
// leak store and its heap charge) without touching the rest of the
// application, and returns the number of bytes reclaimed. Each reboot is
// counted in the component's cell and announced as a NotifRejuvenation.
func (f *Framework) MicroReboot(component string) int64 {
	cell := f.table.Cell(component)
	var freed int64
	if r, ok := cell.Target().(releaser); ok {
		freed = int64(r.Release())
	}
	if f.heap != nil {
		f.heap.FreeAll(component)
	}
	n := cell.CountReboot()
	f.server.Emit(jmx.Notification{
		Type:    NotifRejuvenation,
		Source:  ManagerName(),
		Message: fmt.Sprintf("micro-reboot #%d of %s freed %d bytes", n, component, freed),
		Data:    freed,
	})
	return freed
}

// Rejuvenations returns a copy of the per-component micro-reboot
// counters.
func (f *Framework) Rejuvenations() map[string]int64 {
	out := make(map[string]int64)
	f.table.Each(func(c *monitor.Cell) {
		if n := c.Reboots(); n > 0 {
			out[c.Name()] = n
		}
	})
	return out
}

// RejuvenationCount returns the total micro-reboots across components.
func (f *Framework) RejuvenationCount() int64 {
	var total int64
	f.table.Each(func(c *monitor.Cell) { total += c.Reboots() })
	return total
}
