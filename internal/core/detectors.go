package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/detect"
	"repro/internal/jmx"
	"repro/internal/rootcause"
)

// NotifAlarm is the notification type the detector bank emits when a
// component starts (or stops) being flagged by the online detectors.
const NotifAlarm = "aging.alarm"

// DetectorBank runs the node's detect.Bank off the manager's sampling
// rounds: one component table and one shift guard, a column per watched
// resource. It is wired in through Manager.Subscribe, so its detectors
// update incrementally as each round's batch is ingested — never touching
// a lock the invocation-recording hot path takes (the observer runs under
// sampleMu, which recorders and root-cause queries never acquire).
//
// A round updates the bank under the bank's own mutex and diffs the
// round against the previously alarming set there; transitions queue as
// aging.alarm notifications, which the sampling round emits after
// sampleMu is released, mirroring how the manager emits aging.suspect.
// Readers take the same mutex and get a report assembled from the bank's
// state, which is theirs to keep.
type DetectorBank struct {
	// node is the owning manager's node identity, stamped on verdicts so
	// live rankings match the (node, component) evidence the manager
	// assembles.
	node string
	// resources names the bank's columns, in DetectorResources order —
	// also the per-round notification order, which must be
	// bit-reproducible like everything else driven by the engine.
	resources []string

	mu       sync.Mutex
	bank     *detect.Bank
	alarmed  []map[string]bool // per column: component -> alarming
	entropyA []bool            // per column: entropy alarm latched
	pending  []jmx.Notification
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

// NewDetectorBank creates a detect.Bank watching DetectorResources, in
// that order, tuned per ResourceDetectorConfigs: the bank the manager's
// DetectorBank and the cluster aggregator's per-node state both run.
func NewDetectorBank(cfg detect.Config) *detect.Bank {
	configs := ResourceDetectorConfigs(cfg)
	cols := make([]detect.Column, len(DetectorResources))
	for i, res := range DetectorResources {
		cols[i] = detect.Column{Resource: res, Config: configs[res]}
	}
	return detect.NewBank(cols)
}

// DetectorRows projects a sampling round's batch onto a bank's input rows
// in one pass: one row per sample, with the value ResourceValue gives for
// each of DetectorResources. Memory is missing from a row whose sample
// has no size measurement. The rows are the bank's input buffer (see
// detect.Bank.Rows), so per-round callers project without allocating.
func DetectorRows(bank *detect.Bank, batch []ComponentSample) []detect.Row {
	rows := bank.Rows(len(batch))
	for i := range batch {
		s, r := &batch[i], &rows[i]
		r.Component, r.Usage = s.Component, float64(s.Usage)
		// DetectorResources order: memory, cpu, threads, latency, handles.
		v := r.Values[:5]
		v[0], v[1], v[2], v[3], v[4] = float64(s.Size), s.CPUSeconds, float64(s.Threads), s.LatencySeconds, float64(s.Handles)
		r.Missing = 0
		if !s.SizeOK {
			r.Missing = 1 // column 0, memory
		}
	}
	return rows
}

// AttachDetectors creates a detector bank over the manager's sampling
// stream and subscribes it (per-resource tuning per
// ResourceDetectorConfigs). Attaching twice is an error.
func (m *Manager) AttachDetectors(cfg detect.Config) (*DetectorBank, error) {
	bank := &DetectorBank{
		node:      m.node,
		resources: append([]string(nil), DetectorResources...),
		bank:      NewDetectorBank(cfg),
		alarmed:   make([]map[string]bool, len(DetectorResources)),
		entropyA:  make([]bool, len(DetectorResources)),
	}
	for i := range bank.alarmed {
		bank.alarmed[i] = make(map[string]bool)
	}
	if !m.detectors.CompareAndSwap(nil, bank) {
		return nil, fmt.Errorf("core: detectors already attached")
	}
	m.Subscribe(bank)
	return bank, nil
}

// Report returns the latest report for a resource (nil before the first
// sampling round or for a resource the bank does not watch). Safe from
// any goroutine; the report is the caller's, however long it keeps it.
func (b *DetectorBank) Report(resource string) *detect.Report {
	c := slices.Index(b.resources, resource)
	if c < 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bank.Report(c)
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
// aggregator's live ranking all use it, and DetectorRows unrolls it for
// DetectorResources (TestDetectorRowsMatchResourceValue holds the two
// equal).
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
// package's per-resource observation type for one resource, into a
// caller-owned buffer: it appends one observation per applicable sample
// to dst and returns the extended slice. It feeds a one-resource
// detect.Monitor with the same input DetectorRows gives that resource's
// column of a bank.
func AppendObservations(dst []detect.Observation, resource string, batch []ComponentSample) []detect.Observation {
	for i := range batch {
		s := &batch[i]
		if v, ok := s.ResourceValue(resource); ok {
			dst = append(dst, detect.Observation{Component: s.Component, Usage: float64(s.Usage), Value: v})
		}
	}
	return dst
}

// ObserveSample implements SampleObserver: it feeds the round's batch to
// the bank and queues notifications for alarm transitions. It runs on the
// sampling goroutine, serialised by the manager's sampleMu, which is what
// the single-owner bank requires; the bank's mutex orders it against
// readers. The borrowed batch is fully projected before the call
// returns, honouring the SampleObserver ownership contract.
func (b *DetectorBank) ObserveSample(now time.Time, batch []ComponentSample) {
	b.mu.Lock()
	defer b.mu.Unlock()
	alarms := b.bank.Observe(now, DetectorRows(b.bank, batch))
	for c := range b.resources {
		b.queueTransitions(c, alarms)
	}
}

// queueTransitions diffs column c's round against the previously
// alarming set and queues one notification per transition. A round with
// no alarm in the column, none latched and the entropy alarm where it
// was cannot transition, so only the others assemble the column's
// report to diff. Caller holds b.mu.
func (b *DetectorBank) queueTransitions(c int, alarms []detect.Alarm) {
	was := b.alarmed[c]
	if entropy, _ := b.bank.EntropyAlarm(c); len(was) == 0 && entropy == b.entropyA[c] &&
		!slices.ContainsFunc(alarms, func(a detect.Alarm) bool { return a.Column == c }) {
		return
	}
	rep := b.bank.Report(c)
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
	if rep.EntropyAlarm && !b.entropyA[c] {
		b.entropyA[c] = true
		b.pending = append(b.pending, jmx.Notification{
			Type:   NotifAlarm,
			Source: ManagerName(),
			Message: fmt.Sprintf("consumption entropy collapsing on %s, dominant consumer %s (round %d)",
				rep.Resource, rep.EntropySuspect, rep.Round),
			Data: rep.EntropySuspect,
		})
	} else if !rep.EntropyAlarm && b.entropyA[c] {
		b.entropyA[c] = false
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
