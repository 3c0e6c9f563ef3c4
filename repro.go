// Package repro is a Go reproduction of "J2EE Instrumentation for software
// aging root cause application component determination with AspectJ"
// (Alonso, Torres, Berral, Gavaldà; IPDPS Workshops 2010).
//
// It provides the paper's monitoring framework — aspect-oriented
// interception of component executions, JMX-style monitoring agents and a
// manager agent that builds a resource-consumption × usage-frequency map
// to determine which application component is the root cause of software
// aging — together with the complete evaluation substrate: a TPC-W
// bookstore over an in-memory database, a servlet container with
// registration-time weaving, emulated browsers, aging-fault injectors and
// a discrete-event engine that replays the paper's one-hour experiments in
// deterministic virtual time.
//
// # Quick start
//
//	weaver := repro.NewWeaver(nil)
//	fw, err := repro.NewFramework(repro.FrameworkOptions{Weaver: weaver})
//	...
//	fw.InstrumentComponent("shop.cart", cart)
//	handle := weaver.Weave("shop.cart", "Service", invoke)
//	... drive traffic through handle ...
//	fmt.Println(fw.Manager().Map(repro.ResourceMemory))
//
// The full evaluation scenarios are under internal/experiment and are
// runnable through cmd/experiments; the examples/ directory shows the API
// on progressively larger setups.
package repro

import (
	"net/http"

	"repro/internal/aspect"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/eb"
	"repro/internal/experiment"
	"repro/internal/faultinject"
	"repro/internal/jmx"
	"repro/internal/jmxhttp"
	"repro/internal/jvmheap"
	"repro/internal/objsize"
	"repro/internal/rootcause"
	"repro/internal/servlet"
	"repro/internal/sim"
	"repro/internal/sqldb"
	"repro/internal/tpcw"
)

// Core framework types (the paper's contribution).
type (
	// Framework wires the Aspect Component, the monitoring agents and
	// the manager agent together.
	Framework = core.Framework
	// FrameworkOptions configures NewFramework.
	FrameworkOptions = core.Options
	// Manager is the JMX Manager Agent.
	Manager = core.Manager
)

// Aspect-oriented programming substrate.
type (
	// Weaver owns registered aspects and wraps component invocations.
	Weaver = aspect.Weaver
	// Aspect bundles a pointcut with advice.
	Aspect = aspect.Aspect
	// Pointcut selects join points.
	Pointcut = aspect.Pointcut
	// JoinPoint describes one intercepted execution.
	JoinPoint = aspect.JoinPoint
	// Proceed continues an around-advised execution.
	Proceed = aspect.Proceed
)

// JMX-style management plane.
type (
	// MBeanServer registers and routes MBeans.
	MBeanServer = jmx.Server
	// MBean is a management bean assembled from functions.
	MBean = jmx.Bean
	// ObjectName identifies an MBean.
	ObjectName = jmx.ObjectName
	// Notification is an event on the MBeanServer.
	Notification = jmx.Notification
	// JMXClient talks to a remote MBeanServer over HTTP.
	JMXClient = jmxhttp.Client
)

// Online aging detection (internal/detect wired through the manager).
type (
	// DetectConfig tunes the streaming detectors (windows, alpha,
	// shift-guard thresholds).
	DetectConfig = detect.Config
	// DetectReport is one resource's published detection state.
	DetectReport = detect.Report
	// DetectVerdict is one component's verdict in a report.
	DetectVerdict = detect.Verdict
	// DetectorBank runs one streaming monitor per resource off the
	// manager's sampling rounds.
	DetectorBank = core.DetectorBank
	// LiveStrategy ranks components on streaming detector verdicts.
	LiveStrategy = rootcause.Live
)

// Root-cause determination.
type (
	// Ranking is a strategy verdict, most suspicious component first.
	Ranking = rootcause.Ranking
	// ComponentData is the evidence strategies rank on.
	ComponentData = rootcause.ComponentData
	// PaperMapStrategy is the paper's consumption × usage mechanism.
	PaperMapStrategy = rootcause.PaperMap
	// TrendStrategy is the Mann-Kendall/Sen growth-rate ranking.
	TrendStrategy = rootcause.Trend
	// PinpointBaseline is the failure-correlation baseline.
	PinpointBaseline = rootcause.Pinpoint
	// TraceCollector reconstructs per-request component paths.
	TraceCollector = rootcause.TraceCollector
)

// Evaluation substrate.
type (
	// Stack is a fully assembled system under test (TPC-W, container,
	// EBs, framework).
	Stack = experiment.Stack
	// StackConfig sizes a Stack.
	StackConfig = experiment.StackConfig
	// ExperimentConfig parameterises the paper-figure runners.
	ExperimentConfig = experiment.Config
	// ExperimentResult is one runner's outcome.
	ExperimentResult = experiment.Result
	// MemoryLeak is the paper's [0,N] leak injector.
	MemoryLeak = faultinject.MemoryLeak
	// CPUHog models computational aging.
	CPUHog = faultinject.CPUHog
	// ThreadLeak models unterminated threads.
	ThreadLeak = faultinject.ThreadLeak
	// LeakStore is the retention point injectable components embed.
	LeakStore = faultinject.LeakStore
	// Engine is the deterministic discrete-event engine.
	Engine = sim.Engine
	// Clock is the time source abstraction.
	Clock = sim.Clock
	// Heap is the simulated JVM heap.
	Heap = jvmheap.Heap
	// Container is the servlet container.
	Container = servlet.Container
	// Servlet is the component contract.
	Servlet = servlet.Servlet
	// TPCWApp is the TPC-W bookstore application.
	TPCWApp = tpcw.App
	// DB is the in-memory relational engine.
	DB = sqldb.DB
	// EBDriver runs emulated-browser load: a steady population (a stack's
	// Run) or a phase schedule (RunSchedule).
	EBDriver = eb.ShardedDriver
	// Phase is one segment of a load schedule: a browser population on a
	// workload mix for a duration.
	Phase = eb.Phase
)

// Fig3Schedule returns the paper's dynamic workload schedule (2 min at 50
// EBs, 30 min at 100, 30 min at 200, Shopping mix).
func Fig3Schedule() []Phase { return eb.Fig3Schedule() }

// Resources the manager builds maps for.
const (
	ResourceMemory  = core.ResourceMemory
	ResourceCPU     = core.ResourceCPU
	ResourceThreads = core.ResourceThreads
)

// NewWeaver creates an aspect weaver over clock (wall clock when nil).
func NewWeaver(clock Clock) *Weaver { return aspect.NewWeaver(clock) }

// NewFramework assembles the monitoring framework.
func NewFramework(opts FrameworkOptions) (*Framework, error) { return core.New(opts) }

// NewEngine creates a virtual-time discrete-event engine.
func NewEngine() *Engine { return sim.NewEngine() }

// NewStack assembles a complete evaluation system.
func NewStack(cfg StackConfig) (*Stack, error) { return experiment.NewStack(cfg) }

// MustPointcut compiles a pointcut expression, panicking on error.
func MustPointcut(src string) *Pointcut { return aspect.MustPointcut(src) }

// ParsePointcut compiles a pointcut expression.
func ParsePointcut(src string) (*Pointcut, error) { return aspect.ParsePointcut(src) }

// NewJMXHandler adapts an MBeanServer to HTTP (the Remote Management
// Level); mount it on any mux.
func NewJMXHandler(server *MBeanServer) http.Handler { return jmxhttp.NewHandler(server) }

// NewJMXClient creates a client for a remote MBeanServer adapter.
func NewJMXClient(base string, httpClient *http.Client) *JMXClient {
	return jmxhttp.NewClient(base, httpClient)
}

// RunAllExperiments regenerates every table and figure at the given
// configuration (TimeScale 1.0 reproduces the paper's full durations).
func RunAllExperiments(cfg ExperimentConfig) []ExperimentResult { return experiment.All(cfg) }

// ObjectSizeOf measures the retained size of v with the paper's one-level
// policy.
func ObjectSizeOf(v any) int64 { return objsize.New(objsize.OneLevel).Of(v) }
