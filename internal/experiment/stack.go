// Package experiment contains one runner per table and figure of the
// paper's evaluation, plus the extension and ablation studies (the IDs
// are listed in Experiments, results.go). Each runner assembles the full system — TPC-W over the
// servlet container, emulated browsers, the monitoring framework — runs a
// deterministic virtual-time scenario, and reports the observed result
// against the paper's expectation.
package experiment

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/eb"
	"repro/internal/metrics"
	"repro/internal/rootcause"
	"repro/internal/sim"
	"repro/internal/tpcw"
)

// StackConfig sizes one experiment system.
type StackConfig struct {
	// Seed drives every random stream in the stack.
	Seed uint64
	// Scale sizes the TPC-W database.
	Scale tpcw.Scale
	// Monitored attaches the monitoring framework (AC + agents +
	// manager with sampling).
	Monitored bool
	// CollectTraces attaches the Pinpoint trace collector.
	CollectTraces bool
	// HeapBytes sizes the simulated JVM heap (1 GB default, as the
	// paper's Tomcat).
	HeapBytes int64
	// Mix is the EB workload mix (Shopping in all paper experiments).
	Mix eb.Mix
	// Detect attaches the streaming aging detectors to the manager's
	// sampling rounds (requires Monitored).
	Detect bool
	// DetectConfig tunes the detectors (defaults per detect.Config).
	DetectConfig detect.Config
}

// newDriver builds the load driver over the per-shard targets assemble
// returns (nil: the driver's own model targets), turning the first
// assembly error, or a configuration the driver refuses, into an error.
func newDriver(cfg eb.ShardedConfig, assemble func(shard int, engine *sim.Engine) (eb.Target, error)) (d *eb.ShardedDriver, err error) {
	defer func() {
		if r := recover(); r != nil && err == nil {
			err = fmt.Errorf("experiment: load driver: %v", r)
		}
	}()
	var factory eb.TargetFactory
	if assemble != nil {
		factory = func(shard int, engine *sim.Engine) eb.Target {
			target, aerr := assemble(shard, engine)
			if err == nil {
				err = aerr
			}
			return target
		}
	}
	d = eb.NewShardedDriver(cfg, factory)
	return d, err
}

// browsers is the load half the single-engine stacks share: the
// emulated-browser driver on one engine shard.
type browsers struct{ Driver *eb.ShardedDriver }

// Run holds ebs browsers on the stack's configured mix for d (other
// schedules go to Driver.RunSchedule); a second Run carries on the sessions
// the first left live. Like the driver's Run it panics on a non-positive
// duration or a negative population.
func (b browsers) Run(d time.Duration, ebs int) {
	if err := b.Driver.RunSchedule([]eb.Phase{{Duration: d, EBs: ebs, Mix: b.Driver.Mix()}}, nil); err != nil {
		panic(err)
	}
}

// Stack is one fully assembled system under test: the paper's testbed,
// one Node under an emulated-browser driver.
type Stack struct {
	*Node
	browsers
	Engine    *sim.Engine
	Detectors *core.DetectorBank        // nil unless cfg.Detect
	Traces    *rootcause.TraceCollector // nil unless collecting

	history *history // every sampling round; nil unless monitored
}

// history records every sampling round of a monitored stack, per
// component. The node keeps only its latest round; the figures and the
// trend rankings need the whole run, so the stack keeps it.
type history struct {
	mu     sync.Mutex
	rounds map[string][]stamped
}

// stamped is one component's sample in one round.
type stamped struct {
	ns int64 // the round's instant, UnixNano
	core.ComponentSample
}

// ObserveSample implements core.SampleObserver, copying the borrowed batch.
func (h *history) ObserveSample(now time.Time, batch []core.ComponentSample) {
	ns := now.UnixNano()
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, s := range batch {
		h.rounds[s.Component] = append(h.rounds[s.Component], stamped{ns, s})
	}
}

// series returns a component's recorded levels of a resource, one point
// per round that measured it.
func (h *history) series(component, resource string) []metrics.Point {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []metrics.Point
	for _, r := range h.rounds[component] {
		if v, ok := r.ResourceValue(resource); ok {
			out = append(out, metrics.Point{T: time.Unix(0, r.ns).UTC(), V: v})
		}
	}
	return out
}

// Data returns the manager's evidence for a resource (core.Manager.Data)
// with each component's recorded history of that resource as its series,
// the input a trend ranking needs. Memory points exist only for rounds
// that measured a size. The stack must be monitored.
func (s *Stack) Data(resource string) ([]rootcause.ComponentData, error) {
	data, err := s.Framework.Manager().Data(resource)
	if err != nil {
		return nil, err
	}
	for i := range data {
		data[i].Series = s.history.series(data[i].Name, resource)
	}
	return data, nil
}

// Rank runs a strategy over the stack's recorded evidence for a resource
// (see Data). Unknown resources yield an empty ranking.
func (s *Stack) Rank(resource string, strategy rootcause.Strategy) rootcause.Ranking {
	data, err := s.Data(resource)
	if err != nil {
		return rootcause.Ranking{Resource: resource, Strategy: strategy.Name()}
	}
	return strategy.Rank(resource, data)
}

// NewStack builds and starts a system.
func NewStack(cfg StackConfig) (*Stack, error) {
	if cfg.Detect && !cfg.Monitored {
		return nil, fmt.Errorf("experiment: StackConfig.Detect requires Monitored (detectors ride the manager's sampling rounds)")
	}
	if cfg.Scale.Seed == 0 {
		cfg.Scale.Seed = cfg.Seed + 1
	}
	s := &Stack{}
	var err error
	s.Driver, err = newDriver(eb.ShardedConfig{Seed: cfg.Seed, Mix: cfg.Mix, Items: cfg.Scale.Items, Customers: cfg.Scale.Customers}, func(_ int, engine *sim.Engine) (eb.Target, error) {
		s.Engine = engine
		return s.assemble(cfg)
	})
	if err != nil {
		if s.Node != nil {
			s.Close()
		}
		return nil, err
	}
	return s, nil
}

// assemble builds the node, and what cfg hangs on it, on the stack's engine.
func (s *Stack) assemble(cfg StackConfig) (eb.Target, error) {
	node, err := buildNode(s.Engine, nodeConfig{
		Scale:     cfg.Scale,
		HeapBytes: cfg.HeapBytes,
		Monitored: cfg.Monitored,
	})
	if err != nil {
		return nil, err
	}
	s.Node = node
	if cfg.Monitored {
		s.history = &history{rounds: make(map[string][]stamped)}
		node.Framework.Collector().Subscribe(s.history)
		if cfg.Detect {
			if s.Detectors, err = node.Framework.AttachDetectors(cfg.DetectConfig); err != nil {
				return nil, err
			}
		}
		node.startSampling()
	}
	if cfg.CollectTraces {
		s.Traces = rootcause.NewTraceCollector(0)
		if err := node.Weaver.Register(s.Traces.Aspect()); err != nil {
			return nil, err
		}
	}
	return node.Container, nil
}

// scalePhases multiplies every phase duration by factor (factor <= 0
// means 1), letting benchmarks run shortened versions of the paper's
// one-hour scenarios while cmd/experiments runs them at full length.
func scalePhases(phases []eb.Phase, factor float64) []eb.Phase {
	if factor <= 0 || factor == 1 {
		return phases
	}
	out := make([]eb.Phase, len(phases))
	for i, p := range phases {
		out[i] = p
		out[i].Duration = scaleDuration(p.Duration, factor)
	}
	return out
}
