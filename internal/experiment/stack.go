// Package experiment contains one runner per table and figure of the
// paper's evaluation (plus the extension and ablation studies listed in
// DESIGN.md). Each runner assembles the full system — TPC-W over the
// servlet container, emulated browsers, the monitoring framework — runs a
// deterministic virtual-time scenario, and reports the observed result
// against the paper's expectation.
package experiment

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/eb"
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
	// SampleInterval is the manager sampling period (default 30s).
	SampleInterval time.Duration
	// Mix is the EB workload mix (Shopping in all paper experiments).
	Mix eb.Mix
	// Detect attaches the streaming aging detectors to the manager's
	// sampling rounds (requires Monitored).
	Detect bool
	// DetectConfig tunes the detectors (defaults per detect.Config).
	DetectConfig detect.Config
}

// Stack is one fully assembled system under test: the paper's testbed,
// one Node under an emulated-browser driver.
type Stack struct {
	*Node
	Engine    *sim.Engine
	Detectors *core.DetectorBank // nil unless cfg.Detect
	Driver    *eb.Driver
	Traces    *rootcause.TraceCollector // nil unless collecting
}

// NewStack builds and starts a system.
func NewStack(cfg StackConfig) (*Stack, error) {
	if cfg.Detect && !cfg.Monitored {
		return nil, fmt.Errorf("experiment: StackConfig.Detect requires Monitored (detectors ride the manager's sampling rounds)")
	}
	if cfg.Scale.Seed == 0 {
		cfg.Scale.Seed = cfg.Seed + 1
	}
	engine := sim.NewEngine()
	node, err := buildNode(engine, nodeConfig{
		Scale:          cfg.Scale,
		HeapBytes:      cfg.HeapBytes,
		Monitored:      cfg.Monitored,
		SampleInterval: cfg.SampleInterval,
	})
	if err != nil {
		return nil, err
	}
	s := &Stack{Node: node, Engine: engine}
	if cfg.Monitored {
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
	s.Driver = eb.NewDriver(engine, node.Container, eb.Config{
		Mix:       cfg.Mix,
		Seed:      cfg.Seed,
		Items:     cfg.Scale.Items,
		Customers: cfg.Scale.Customers,
	})
	return s, nil
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
		d := time.Duration(float64(p.Duration) * factor)
		if d < time.Minute {
			d = time.Minute
		}
		out[i] = eb.Phase{Duration: d, EBs: p.EBs}
	}
	return out
}
