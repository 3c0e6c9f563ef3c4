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
	"repro/internal/aspect"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/faultinject"
	"repro/internal/objsize"
	"repro/internal/rootcause"
	"repro/internal/sim"
)

// Core framework types (the paper's contribution).
type (
	// Framework wires the Aspect Component, the monitoring agents and
	// the manager agent together.
	Framework = core.Framework
	// FrameworkOptions configures NewFramework.
	FrameworkOptions = core.Options
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
	// Clock is the time source abstraction.
	Clock = sim.Clock
)

// Root-cause determination.
type (
	// TrendStrategy is the Mann-Kendall/Sen growth-rate ranking.
	TrendStrategy = rootcause.Trend
	// PinpointBaseline is the failure-correlation baseline.
	PinpointBaseline = rootcause.Pinpoint
)

// Evaluation substrate.
type (
	// Stack is a fully assembled system under test (TPC-W, container,
	// EBs, framework).
	Stack = experiment.Stack
	// StackConfig sizes a Stack.
	StackConfig = experiment.StackConfig
	// LeakStore is the retention point injectable components embed.
	LeakStore = faultinject.LeakStore
)

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

// NewStack assembles a complete evaluation system.
func NewStack(cfg StackConfig) (*Stack, error) { return experiment.NewStack(cfg) }

// MustPointcut compiles a pointcut expression, panicking on error.
func MustPointcut(src string) *Pointcut { return aspect.MustPointcut(src) }

// ObjectSizeOf measures the retained size of v with the paper's one-level
// policy.
func ObjectSizeOf(v any) int64 { return objsize.New(objsize.OneLevel).Of(v) }
