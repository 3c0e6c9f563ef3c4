package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/detect"
	"repro/internal/jmx"
	"repro/internal/rootcause"
)

// NotifAlarm is the notification type the detector bank emits when a
// component starts (or stops) being flagged by the online detectors.
const NotifAlarm = "aging.alarm"

// DetectorBank runs one streaming detect.Monitor per resource off the
// manager's sampling rounds. It is wired in through Manager.Subscribe, so
// its detectors update incrementally as each round's batch is ingested —
// never touching a lock the invocation-recording hot path takes (the
// observer runs under sampleMu, which recorders and root-cause queries
// never acquire).
//
// Alarm transitions are queued under the bank's own mutex and emitted as
// aging.alarm notifications by the sampling round after sampleMu is
// released, mirroring how the manager emits aging.suspect.
//
// Readers never touch a monitor's recycled report ring: under the same
// mutex each round copies its report into a bank-owned buffer, and Report
// hands out a clone of that, so a reader descheduled for any number of
// rounds still holds a consistent report.
type DetectorBank struct {
	// node is the owning manager's node identity, stamped on verdicts so
	// live rankings match the (node, component) evidence the manager
	// assembles.
	node string
	// resources fixes the per-round processing order (map iteration
	// would be nondeterministic, and notification order must be
	// bit-reproducible like everything else driven by the engine).
	resources []string
	monitors  map[string]*detect.Monitor
	// obsScratch is the per-round observation buffer, reused across
	// rounds and resources; it is owned by the sampling goroutine like
	// the monitors themselves.
	obsScratch []detect.Observation

	mu       sync.Mutex
	latest   map[string]*detect.Report  // resource -> copy of the last round's report
	alarmed  map[string]map[string]bool // resource -> component -> alarming
	pending  []jmx.Notification
	entropyA map[string]bool // resource -> entropy alarm latched
}

// DefaultCPUMinSlope is the Sen-slope floor applied to the CPU detector
// when the caller leaves Config.MinSlope at zero, in (seconds per
// invocation) per second. Per-invocation CPU cost exhibits real but slow
// secular drift even in a healthy system, and a floor of zero would flag
// it as component aging. The drift is best_sellers aggregating a window
// that is still filling: the scenario databases start with a few hundred
// orders, the window is the latest 3333, so until a run has placed that
// many the lines it reads grow with the table. Measured on an un-faulted
// S1 run (500 items, 300 customers), the Sen slope of tpcw.best_sellers
// is 1.5e-5 s/s at time scale 0.35 and 1.7e-5 at 1.0, Mann-Kendall z above
// 5; every other interaction is below 4e-7. (While "latest order" and the
// window were full-table scans the same run measured 4.3e-5 and 1.9e-5.)
// 5e-4 (+30ms of mean service time per minute) is 30 times that drift and
// far below what a runaway computational bug produces.
const DefaultCPUMinSlope = 5e-4

// DefaultLatencyMinSlope is the Sen-slope floor applied to the latency
// detector when the caller leaves Config.MinSlope at zero, in (seconds
// per invocation) per second. Per-invocation latency inherits the CPU
// stream's secular drift (latency contains the service time) plus
// queueing noise around load transitions, so it gets the same floor:
// only degradation faster than +30ms of mean response time per minute
// counts as aging.
const DefaultLatencyMinSlope = 5e-4

// DetectorResources is the fixed, deterministic order in which the
// detector bank (and the cluster aggregator's per-node banks) process the
// watched resources each round.
var DetectorResources = []string{ResourceMemory, ResourceCPU, ResourceThreads, ResourceLatency, ResourceHandles}

// ResourceDetectorConfigs derives the per-resource detector configuration
// from one base config: memory, threads and handles are watched as raw
// levels; CPU and latency are watched per invocation (their cumulative
// series grow with traffic whether or not anything ages, so they need the
// workload normalisation) and get the DefaultCPUMinSlope /
// DefaultLatencyMinSlope floor unless the config sets its own. The
// cluster aggregator reuses this so per-node verdicts carry single-node
// semantics.
func ResourceDetectorConfigs(cfg detect.Config) map[string]detect.Config {
	cpuCfg := cfg
	cpuCfg.PerInvocation = true
	if cpuCfg.MinSlope == 0 {
		cpuCfg.MinSlope = DefaultCPUMinSlope
	}
	latCfg := cfg
	latCfg.PerInvocation = true
	if latCfg.MinSlope == 0 {
		latCfg.MinSlope = DefaultLatencyMinSlope
	}
	return map[string]detect.Config{
		ResourceMemory:  cfg,
		ResourceCPU:     cpuCfg,
		ResourceThreads: cfg,
		ResourceLatency: latCfg,
		ResourceHandles: cfg,
	}
}

// AttachDetectors creates a detector bank over the manager's sampling
// stream and subscribes it (per-resource tuning per
// ResourceDetectorConfigs). Attaching twice is an error.
func (m *Manager) AttachDetectors(cfg detect.Config) (*DetectorBank, error) {
	configs := ResourceDetectorConfigs(cfg)
	monitors := make(map[string]*detect.Monitor, len(configs))
	for _, res := range DetectorResources {
		monitors[res] = detect.NewMonitor(res, configs[res])
	}
	bank := &DetectorBank{
		node:      m.node,
		resources: append([]string(nil), DetectorResources...),
		monitors:  monitors,
		latest:    make(map[string]*detect.Report),
		alarmed:   make(map[string]map[string]bool),
		entropyA:  make(map[string]bool),
	}
	if !m.detectors.CompareAndSwap(nil, bank) {
		return nil, fmt.Errorf("core: detectors already attached")
	}
	m.Subscribe(bank)
	return bank, nil
}

// Report returns the caller's own copy of the latest report for a resource
// (nil before the first sampling round). Safe from any goroutine, however
// long the caller keeps it.
func (b *DetectorBank) Report(resource string) *detect.Report {
	b.mu.Lock()
	defer b.mu.Unlock()
	if rep := b.latest[resource]; rep != nil {
		return rep.Clone()
	}
	return nil
}

// Verdicts adapts the latest report of a resource to the live root-cause
// strategy's verdict type. Safe from any goroutine.
func (b *DetectorBank) Verdicts(resource string) []rootcause.LiveVerdict {
	rep := b.Report(resource)
	if rep == nil {
		return nil
	}
	out := make([]rootcause.LiveVerdict, 0, len(rep.Components))
	for _, v := range rep.Components {
		out = append(out, rootcause.LiveVerdict{
			Component: v.Component,
			Node:      b.node,
			Alarm:     v.Alarm,
			Score:     v.Score,
		})
	}
	return out
}

// ResourceValue projects a sample onto one resource: the level a map, a
// trend or a detector reads for it, and whether the sample measures the
// resource at all (memory needs a size measurement; an unknown resource
// is never measured). It is the single place the sample→resource choice
// lives: the manager's Data, AppendObservations and the cluster
// aggregator's live ranking all use it.
func (s *ComponentSample) ResourceValue(resource string) (float64, bool) {
	switch resource {
	case ResourceMemory:
		return float64(s.Size), s.SizeOK
	case ResourceCPU:
		return s.CPUSeconds, true
	case ResourceThreads:
		return float64(s.Threads), true
	case ResourceLatency:
		return s.LatencySeconds, true
	case ResourceHandles:
		return float64(s.Handles), true
	case ResourceMemoryDelta:
		return float64(s.Delta), true
	}
	return 0, false
}

// AppendObservations maps a sampling round's batch onto the detect
// package's observation type for one resource, into a caller-owned buffer:
// it appends one observation per applicable sample to dst and returns the
// extended slice, so per-round callers project every round without
// allocating. The manager's bank and the cluster aggregator's per-node
// banks both use it, so per-node cluster verdicts carry exactly
// single-node semantics.
func AppendObservations(dst []detect.Observation, resource string, batch []ComponentSample) []detect.Observation {
	for i := range batch {
		s := &batch[i]
		if v, ok := s.ResourceValue(resource); ok {
			dst = append(dst, detect.Observation{Component: s.Component, Usage: float64(s.Usage), Value: v})
		}
	}
	return dst
}

// ObserveSample implements SampleObserver: it fans the round's batch out
// to the per-resource monitors and queues notifications for alarm
// transitions. It runs on the sampling goroutine, serialised by the
// manager's sampleMu, which is what the single-owner detectors require.
// The borrowed batch is fully projected before the call returns, honouring
// the SampleObserver ownership contract.
func (b *DetectorBank) ObserveSample(now time.Time, batch []ComponentSample) {
	for _, resource := range b.resources {
		b.obsScratch = AppendObservations(b.obsScratch[:0], resource, batch)
		rep := b.monitors[resource].Observe(now, b.obsScratch)
		b.queueTransitions(rep)
	}
}

// queueTransitions publishes the round's report to readers, diffs it
// against the previously-alarming set and queues one notification per
// transition.
func (b *DetectorBank) queueTransitions(rep *detect.Report) {
	b.mu.Lock()
	defer b.mu.Unlock()
	kept := b.latest[rep.Resource]
	if kept == nil {
		kept = &detect.Report{}
		b.latest[rep.Resource] = kept
	}
	comps := append(kept.Components[:0], rep.Components...)
	*kept = *rep
	kept.Components = comps
	was := b.alarmed[rep.Resource]
	if was == nil {
		was = make(map[string]bool)
		b.alarmed[rep.Resource] = was
	}
	for _, v := range rep.Components {
		if v.Alarm && !was[v.Component] {
			was[v.Component] = true
			b.pending = append(b.pending, jmx.Notification{
				Type:   NotifAlarm,
				Source: ManagerName(),
				Message: fmt.Sprintf("online detector flags %s on %s (slope %.4g/s, round %d)",
					v.Component, rep.Resource, v.Score, rep.Round),
				Data: v,
			})
		} else if !v.Alarm && was[v.Component] {
			delete(was, v.Component)
			b.pending = append(b.pending, jmx.Notification{
				Type:   NotifAlarm,
				Source: ManagerName(),
				Message: fmt.Sprintf("online detector clears %s on %s (round %d)",
					v.Component, rep.Resource, rep.Round),
				Data: v,
			})
		}
	}
	if rep.EntropyAlarm && !b.entropyA[rep.Resource] {
		b.entropyA[rep.Resource] = true
		b.pending = append(b.pending, jmx.Notification{
			Type:   NotifAlarm,
			Source: ManagerName(),
			Message: fmt.Sprintf("consumption entropy collapsing on %s, dominant consumer %s (round %d)",
				rep.Resource, rep.EntropySuspect, rep.Round),
			Data: rep.EntropySuspect,
		})
	} else if !rep.EntropyAlarm && b.entropyA[rep.Resource] {
		delete(b.entropyA, rep.Resource)
		b.pending = append(b.pending, jmx.Notification{
			Type:   NotifAlarm,
			Source: ManagerName(),
			Message: fmt.Sprintf("consumption entropy alarm cleared on %s (round %d)",
				rep.Resource, rep.Round),
		})
	}
}

// drainNotifications returns and clears the queued alarm transitions.
func (b *DetectorBank) drainNotifications() []jmx.Notification {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.pending
	b.pending = nil
	return out
}

// LiveRank runs the live strategy for a resource: detector verdicts give
// the scores and alarms, the current evidence gives the map coordinates.
// It returns an empty ranking when no detectors are attached.
func (m *Manager) LiveRank(resource string) rootcause.Ranking {
	bank := m.detectors.Load()
	if bank == nil {
		return rootcause.Ranking{Resource: resource, Strategy: rootcause.Live{}.Name()}
	}
	return m.Rank(resource, rootcause.Live{Source: bank.Verdicts})
}
