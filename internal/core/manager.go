package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/jmx"
	"repro/internal/metrics"
	"repro/internal/rootcause"
)

// NotifSuspect is the notification type the manager emits when the top
// aging suspect changes.
const NotifSuspect = "aging.suspect"

// Resources the manager can build maps for.
const (
	ResourceMemory  = "memory"
	ResourceCPU     = "cpu"
	ResourceThreads = "threads"
	// ResourceLatency tracks per-invocation response latency — service
	// time plus contention wait. It is the indicator for latency-only
	// aging (lock contention, pool queueing) where no resource level
	// grows; the CHAOS catalogue lists it next to the handle leaks.
	ResourceLatency = "latency"
	// ResourceHandles tracks live resource handles (connections, fds,
	// session handles) per component — the non-heap leak vector.
	ResourceHandles = "handles"
	// ResourceMemoryDelta ranks on the per-invocation heap deltas the
	// AC's before/after advice accumulates (§III.B.1), the paper's
	// original measurement path; available when a heap is attached.
	ResourceMemoryDelta = "memory-delta"
)

// Manager is the JMX Manager Agent: the management-plane half of the split
// monitoring pipeline. The node-local mechanics — component registry,
// sampling rounds, each component's latest round — live in the embedded
// Collector; the Manager adds what a management plane needs on top:
// root-cause queries (Data/Rank/Map), the online detector bank, and the
// aging.suspect / aging.alarm notifications. A cluster deployment runs
// one Manager per node and merges the collectors' rounds in an
// aggregator (internal/cluster); a standalone deployment talks to the
// Manager alone and never notices the split.
type Manager struct {
	*Collector

	lastSuspect string // guarded by sampleMu

	detectors atomic.Pointer[DetectorBank]
}

func newManager(f *Framework, node string) *Manager {
	return &Manager{Collector: newCollector(f, node)}
}

// Sample performs one collection round (see Collector.Sample) and then
// lets the management plane react: queued detector alarms and suspect
// changes go out as notifications after the round lock drops, so listeners
// may query the manager freely.
func (m *Manager) Sample(now time.Time) {
	m.Collector.Sample(now)
	m.afterRound()
}

// afterRound emits the notifications a finished round queued.
func (m *Manager) afterRound() {
	if bank := m.detectors.Load(); bank != nil {
		for _, n := range bank.drainNotifications() {
			m.f.server.Emit(n)
		}
	}
	m.notifyIfSuspectChanged()
}

// memEvidence returns a record's accumulated memory consumption (size net
// of baseline, clamped at zero) and its latest usage count. Caller holds
// sampleMu.
func memEvidence(rec *componentRecord) (consumption float64, usage float64) {
	if rec.last.SizeOK {
		consumption = math.Max(0, float64(rec.last.Size)-float64(rec.baseline))
	}
	return consumption, float64(rec.last.Usage)
}

// notifyIfSuspectChanged emits an aging.suspect notification when the
// most suspicious component changes and its score is meaningful. It runs
// after every sampling round, so it must be garbage-free: it applies the
// PaperMap scoring rule (normalised consumption weighted by usage)
// directly over the latest levels instead of building a full ranking.
// The scoring and the (score desc, name asc) tie-break replicate
// rootcause.PaperMap exactly; the strategy tests hold the two
// implementations together.
func (m *Manager) notifyIfSuspectChanged() {
	m.sampleMu.Lock()
	recs := m.roundRecords()
	var maxC, maxU float64
	for _, rec := range recs {
		c, u := memEvidence(rec)
		if c > maxC {
			maxC = c
		}
		if u > maxU {
			maxU = u
		}
	}
	var topName string
	var topScore float64
	for _, rec := range recs {
		c, u := memEvidence(rec)
		var normC, normU float64
		if maxC > 0 {
			normC = c / maxC
		}
		if maxU > 0 {
			normU = u / maxU
		}
		score := normC * (0.6 + 0.4*normU)
		if score > topScore || (score == topScore && topName != "" && rec.name < topName) {
			topName, topScore = rec.name, score
		}
	}
	if topName == "" || topScore < 0.1 {
		m.sampleMu.Unlock()
		return
	}
	changed := topName != m.lastSuspect
	if changed {
		m.lastSuspect = topName
	}
	m.sampleMu.Unlock()
	if changed {
		m.f.server.Emit(jmx.Notification{
			Type:    NotifSuspect,
			Source:  ManagerName(),
			Message: fmt.Sprintf("top aging suspect: %s (score %.3f)", topName, topScore),
			Data:    rootcause.Ranked{Name: topName, Score: topScore},
		})
	}
}

// Data assembles the per-component evidence for a resource from the latest
// round, the input to the ranking strategies. For memory, consumption is
// the measured size net of the component's first-sample baseline. The
// evidence carries no series: the node keeps no history, so a strategy
// that ranks on a trend (rootcause.Trend) needs a recorded one.
func (m *Manager) Data(resource string) ([]rootcause.ComponentData, error) {
	// A sample with a size measures every resource the collector knows.
	if _, ok := (&ComponentSample{SizeOK: true}).ResourceValue(resource); !ok {
		return nil, fmt.Errorf("core: unknown resource %q", resource)
	}
	m.sampleMu.Lock()
	defer m.sampleMu.Unlock()
	recs := m.roundRecords()
	out := make([]rootcause.ComponentData, 0, len(recs))
	for _, rec := range recs {
		d := rootcause.ComponentData{Name: rec.name, Node: m.node, Usage: rec.last.Usage}
		if v, ok := rec.last.ResourceValue(resource); ok {
			switch resource {
			case ResourceMemory:
				v -= float64(rec.baseline)
				fallthrough
			case ResourceMemoryDelta:
				v = math.Max(0, v)
			}
			d.Consumption = v
		}
		out = append(out, d)
	}
	return out, nil
}

// Rank runs a strategy over the current evidence for a resource. Unknown
// resources yield an empty ranking.
func (m *Manager) Rank(resource string, strategy rootcause.Strategy) rootcause.Ranking {
	data, err := m.Data(resource)
	if err != nil {
		return rootcause.Ranking{Resource: resource, Strategy: strategy.Name()}
	}
	return strategy.Rank(resource, data)
}

// Map builds the paper's consumption × usage map for a resource.
func (m *Manager) Map(resource string) rootcause.Ranking {
	return m.Rank(resource, rootcause.PaperMap{})
}

// TimeToExhaustion extrapolates the time until heap exhaustion from the
// retained bytes of the last heapWindow rounds (Sen slope over the
// window). It returns +Inf when the heap is not growing or no heap is
// attached.
func (m *Manager) TimeToExhaustion() time.Duration {
	if m.f.heap == nil {
		return time.Duration(math.MaxInt64)
	}
	m.sampleMu.Lock()
	pts := m.heapWindowPoints()
	m.sampleMu.Unlock()
	trend := metrics.MannKendallSeries(pts, 0.05)
	secs := m.f.heap.HeadroomSeconds(trend.SenSlope)
	if math.IsInf(secs, 1) || secs > float64(math.MaxInt64/int64(time.Second)) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(secs * float64(time.Second))
}

// bean exposes the manager over JMX.
func (m *Manager) bean() *jmx.Bean {
	return jmx.NewBean("JMX Manager Agent: resource-component map and root cause determination").
		Attr("Components", "instrumented component names", func() any { return m.Components() }).
		Attr("Samples", "collection rounds so far", func() any { return m.Samples() }).
		Attr("Node", "the node identity of this manager's collector", func() any { return m.Node() }).
		Attr("MonitoringEnabled", "whether the AC advice is active", func() any {
			return m.f.MonitoringEnabled()
		}).
		Attr("Rejuvenations", "per-component micro-reboot counts", func() any {
			return m.f.Rejuvenations()
		}).
		Op("Sample", "run one collection round now", func(...any) (any, error) {
			m.sampleNow()
			m.afterRound()
			return m.Samples(), nil
		}).
		Op("Map", "build the consumption×usage map for a resource", func(args ...any) (any, error) {
			resource, err := stringArg(args)
			if err != nil {
				return nil, err
			}
			return m.Map(resource), nil
		}).
		Op("Suspects", "rank components for a resource with the paper strategy", func(args ...any) (any, error) {
			resource, err := stringArg(args)
			if err != nil {
				return nil, err
			}
			ranking := m.Map(resource)
			names := make([]string, len(ranking.Entries))
			for i, e := range ranking.Entries {
				names[i] = e.Name
			}
			return names, nil
		}).
		Op("ActivateAC", "enable interception of the named component", func(args ...any) (any, error) {
			name, err := stringArg(args)
			if err != nil {
				return nil, err
			}
			m.f.weaver.SetComponentEnabled(name, true)
			return true, nil
		}).
		Op("DeactivateAC", "disable interception of the named component", func(args ...any) (any, error) {
			name, err := stringArg(args)
			if err != nil {
				return nil, err
			}
			m.f.weaver.SetComponentEnabled(name, false)
			return true, nil
		}).
		Op("MicroReboot", "release the named component's retained memory", func(args ...any) (any, error) {
			name, err := stringArg(args)
			if err != nil {
				return nil, err
			}
			return m.f.MicroReboot(name), nil
		}).
		Op("TimeToExhaustion", "seconds until heap exhaustion at the current trend", func(...any) (any, error) {
			return m.TimeToExhaustion().Seconds(), nil
		}).
		Op("LiveMap", "rank components with the online detector verdicts", func(args ...any) (any, error) {
			resource, err := stringArg(args)
			if err != nil {
				return nil, err
			}
			return m.LiveRank(resource), nil
		}).
		Op("Verdicts", "latest online detection report for a resource", func(args ...any) (any, error) {
			resource, err := stringArg(args)
			if err != nil {
				return nil, err
			}
			bank := m.detectors.Load()
			if bank == nil {
				return nil, errors.New("core: no detectors attached")
			}
			rep := bank.Report(resource)
			if rep == nil {
				return nil, fmt.Errorf("core: no report yet for %q", resource)
			}
			return rep, nil
		})
}

func stringArg(args []any) (string, error) {
	if len(args) != 1 {
		return "", errors.New("core: want exactly one string argument")
	}
	s, ok := args[0].(string)
	if !ok {
		return "", errors.New("core: want a string argument")
	}
	return s, nil
}
