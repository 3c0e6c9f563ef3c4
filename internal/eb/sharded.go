package eb

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/servlet"
	"repro/internal/sim"
)

// ShardedDriver is the load generator, from the paper's 200 EBs on one
// engine to a million sessions on one engine per core: a session-table
// population partitioned across the engines of a sim.ShardGroup. Each shard
// owns a disjoint set of session ids and a private Target, so a window
// never contends on shared state; telemetry is integer per-second
// completion buckets merged exactly at the end. The discipline is TPC-W's
// closed loop, the one the paper drives its testbed with: a population of
// browsers, each cycling request → think → request. A phase schedule
// changes the population and the mix over virtual time (Fig. 3's
// 50 → 100 → 200 EBs); Run holds Sessions browsers of Mix.
//
// Determinism: every session's walk is a pure function of (Seed, session
// id, schedule), and sessions map to shards by modulo. Shard count changes
// which engine runs a session, never what the session does, so the merged
// completion trace and WIPS buckets are byte-identical across shard
// counts — pinned by the golden tests in sharded_test.go.

// ThinkMean and ThinkCap are TPC-W's think time: negative-exponential with
// a 7 s mean, truncated at 70 s.
const (
	ThinkMean = 7 * time.Second
	ThinkCap  = 70 * time.Second
)

// ShardedConfig parameterises a ShardedDriver.
type ShardedConfig struct {
	// Shards is the engine count (default 1).
	Shards int
	// Seed derives every session stream.
	Seed uint64
	// Mix selects the transition matrix Run drives (a schedule names a mix
	// per phase).
	Mix Mix
	// Items / Customers mirror the database scale (defaults 1000 / 1440).
	Items     int
	Customers int

	// Sessions is the population Run holds, and the size the session
	// tables start at (a schedule with a higher peak grows them when it is
	// armed).
	Sessions int

	// RecordTrace keeps the (time, session) completion log for golden
	// comparisons. Off for the million-session benchmark: the log is the
	// only per-completion allocation in the driver.
	RecordTrace bool
}

// pacingWindow is the shard group's bounded-lag window: no shard's clock
// leads another's by more than this.
const pacingWindow = 100 * time.Millisecond

func (c ShardedConfig) withDefaults() ShardedConfig {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Items <= 0 {
		c.Items = 1000
	}
	if c.Customers <= 0 {
		c.Customers = 1440
	}
	return c
}

// Target is the surface sessions submit interactions to: a single servlet
// container in the paper's one-node testbed, or a cluster balancer
// fronting N containers. *servlet.Container satisfies it directly.
type Target interface {
	// Submit enqueues one request; done runs when it completes.
	Submit(req *servlet.Request, done servlet.Completion)
	// Throughput reports the recent completion rate (requests/second).
	Throughput() float64
}

// TargetFactory builds the per-shard backend: shard i's sessions submit
// only to targets[i], so a factory returning independent stacks keeps the
// whole run contention-free. A nil factory gets a default ModelTarget.
type TargetFactory func(shard int, engine *sim.Engine) Target

// traceEvent is one completion in the golden log.
type traceEvent struct {
	atNs int64
	id   int64
}

// driverShard is the per-engine slice of the driver.
type driverShard struct {
	d      *ShardedDriver
	engine *sim.Engine
	target Target
	table  *sessionTable

	stepFn  func(time.Time, int64)
	doneFns []servlet.Completion

	// Sessions with id >= population are retired — they stop at their
	// next step — and running marks the slots that have a think timer or a
	// request outstanding, so a phase never starts a session twice.
	population int64
	running    []bool

	completed uint64
	failed    uint64
	checksum  uint64
	buckets   []uint32
	trace     []traceEvent
}

// ShardedDriver drives the sharded session population. Create with
// NewShardedDriver, drive with Run or RunSchedule — again to carry on from
// where the last run stopped, live sessions and all — and read the merged
// telemetry.
type ShardedDriver struct {
	cfg      ShardedConfig
	group    *sim.ShardGroup
	shards   []*driverShard
	matrices [Ordering + 1]*compiledMatrix // by Mix

	// The armed schedule: phases[next:] are still to be entered, the first
	// of them at nextAt.
	phases []Phase
	next   int
	nextAt time.Time
}

// NewShardedDriver builds the group, tables and per-shard targets. The
// construction cost is O(capacity) once; steady-state driving allocates
// nothing.
func NewShardedDriver(cfg ShardedConfig, factory TargetFactory) *ShardedDriver {
	cfg = cfg.withDefaults()
	if cfg.Sessions < 0 {
		panic("eb: ShardedDriver with negative Sessions")
	}
	if factory == nil {
		factory = func(_ int, engine *sim.Engine) Target {
			return NewModelTarget(engine, cfg.Seed, 5*time.Millisecond, 20*time.Millisecond, cfg.Items)
		}
	}

	zipf := sim.NewZipfTable(cfg.Items, 0.8)
	unames := unameVocabulary(cfg.Customers)

	d := &ShardedDriver{
		cfg:    cfg,
		group:  sim.NewShardGroup(cfg.Shards, pacingWindow),
		shards: make([]*driverShard, cfg.Shards),
	}
	for mix := range d.matrices {
		d.matrices[mix] = compileMatrix(TransitionMatrix(Mix(mix)))
	}

	for i := range d.shards {
		sh := &driverShard{d: d, engine: d.group.Shard(i)}
		sh.table = newSessionTable(0, cfg.Seed, zipf, nil, unames) // enter sets the phase's matrix
		sh.grow(d.shardCapacity(i, cfg.Sessions))
		sh.target = factory(i, sh.engine)
		sh.stepFn = sh.step
		d.shards[i] = sh
	}
	return d
}

// grow sizes the shard's slot-indexed state for capacity sessions.
func (sh *driverShard) grow(capacity int) {
	from := len(sh.doneFns)
	if capacity <= from {
		return
	}
	sh.table.grow(capacity)
	sh.running = grown(sh.running, capacity)
	// Reserve the event arena for the steady-state live population: one
	// timer or in-flight completion per session, plus inflight slack.
	sh.engine.Reserve(capacity + capacity/8 + 1024)
	sh.doneFns = grown(sh.doneFns, capacity)
	for slot := from; slot < capacity; slot++ {
		sh.doneFns[slot] = func(_ *servlet.Request, resp *servlet.Response) {
			sh.complete(slot, resp)
		}
	}
}

// shardCapacity returns shard i's table size: its share of a population
// of sessions.
func (d *ShardedDriver) shardCapacity(i, sessions int) int {
	capacity := sessions / d.cfg.Shards
	if i < sessions%d.cfg.Shards {
		capacity++
	}
	if capacity < 1 {
		capacity = 1
	}
	return capacity
}

// Shards reports the engine count.
func (d *ShardedDriver) Shards() int { return len(d.shards) }

// Mix reports the configured mix: the one Run walks, and the one a caller
// building its own schedule passes on to stay on it (a Phase names its mix;
// it does not inherit this one).
func (d *ShardedDriver) Mix() Mix { return d.cfg.Mix }

// start arms a schedule from the current instant without advancing time,
// replacing whatever is left of an earlier one. A schedule the driver
// cannot run is rejected with an error naming the first offending phase.
// Tables and telemetry are sized here for the schedule's peak and end —
// the instant returned — so driving it allocates nothing.
func (d *ShardedDriver) start(phases []Phase) (end time.Time, err error) {
	if len(phases) == 0 {
		return end, fmt.Errorf("eb: empty phase schedule")
	}
	var total time.Duration
	peak := 0
	for i, ph := range phases {
		switch {
		case ph.Duration <= 0:
			return end, fmt.Errorf("eb: phase %d of %d: non-positive duration %v", i+1, len(phases), ph.Duration)
		case ph.EBs < 0:
			return end, fmt.Errorf("eb: phase %d of %d: negative population %d", i+1, len(phases), ph.EBs)
		case ph.Mix < Browsing || ph.Mix > Ordering:
			return end, fmt.Errorf("eb: phase %d of %d: unknown mix %d", i+1, len(phases), ph.Mix)
		}
		total += ph.Duration
		peak = max(peak, ph.EBs)
	}
	end = d.group.Now().Add(total)
	// The per-second buckets are indexed from the epoch, so a later run
	// extends the earlier one's series.
	seconds := int(end.Sub(sim.Epoch)/time.Second) + 2
	for i, sh := range d.shards {
		sh.grow(d.shardCapacity(i, peak))
		if len(sh.buckets) < seconds {
			sh.buckets = grown(sh.buckets, seconds)
		}
	}
	d.phases = append(d.phases[:0], phases...)
	d.next = 0
	d.nextAt = d.group.Now()
	return end, nil
}

// enter makes ph the running phase: every shard walks its mix from the
// next transition on, and sessions 0..EBs-1 run while the rest retire at
// their next step.
func (d *ShardedDriver) enter(ph Phase) {
	for _, sh := range d.shards {
		sh.table.matrix = d.matrices[ph.Mix]
		sh.population = int64(ph.EBs)
	}
	// Shards take turns: id → shard by modulo, slot by division. Dense
	// per-shard tables, shard-count independent global ids.
	shards := int64(d.cfg.Shards)
	for id := int64(0); id < int64(ph.EBs); id++ {
		sh := d.shards[id%shards]
		slot := int(id / shards)
		if sh.running[slot] {
			continue // never stopped: its pending step finds it back in the population
		}
		if sh.table.idle(slot) {
			sh.table.bind(slot, id)
		}
		sh.running[slot] = true
		// Stagger starts across one mean think time, drawn from the
		// session's own stream so the ramp is id-deterministic. A session a
		// shrink had stopped continues that stream: it is not bound again.
		delay := time.Duration(sh.table.rng[slot].Float64() * float64(ThinkMean))
		sh.engine.ScheduleArgAfter(delay, sh.stepFn, int64(slot))
	}
}

// advance drives all shards to the given virtual instant (a barrier per
// pacing window), entering each armed phase at its boundary — after the
// events of that instant.
func (d *ShardedDriver) advance(to time.Time, onWindow func(now time.Time)) {
	for d.next < len(d.phases) && !d.nextAt.After(to) {
		d.group.RunUntil(d.nextAt, onWindow)
		ph := d.phases[d.next]
		d.next++
		d.enter(ph)
		d.nextAt = d.nextAt.Add(ph.Duration)
	}
	d.group.RunUntil(to, onWindow)
}

// RunSchedule drives the load through phases, from the current instant to
// the end of the last one.
func (d *ShardedDriver) RunSchedule(phases []Phase, onWindow func(now time.Time)) error {
	end, err := d.start(phases)
	if err != nil {
		return err
	}
	d.advance(end, onWindow)
	return nil
}

// Run drives the configured population and mix for the given duration: the
// one-phase schedule. A non-positive duration is a caller bug and panics.
func (d *ShardedDriver) Run(duration time.Duration, onWindow func(now time.Time)) {
	steady := []Phase{{Duration: duration, EBs: d.cfg.Sessions, Mix: d.cfg.Mix}}
	if err := d.RunSchedule(steady, onWindow); err != nil {
		panic(err)
	}
}

// Completed returns total completed interactions across shards.
func (d *ShardedDriver) Completed() uint64 {
	return d.sum(func(sh *driverShard) uint64 { return sh.completed })
}

// Failed returns total failed interactions across shards.
func (d *ShardedDriver) Failed() uint64 {
	return d.sum(func(sh *driverShard) uint64 { return sh.failed })
}

// Checksum returns the commutative completion fingerprint: the sum over
// all completions of a hash of (instant, session id). Equal sums across
// shard counts certify equal merged schedules without comparing traces.
func (d *ShardedDriver) Checksum() uint64 {
	return d.sum(func(sh *driverShard) uint64 { return sh.checksum })
}

func (d *ShardedDriver) sum(f func(*driverShard) uint64) uint64 {
	var total uint64
	for _, sh := range d.shards {
		total += f(sh)
	}
	return total
}

// WIPSBuckets returns the merged per-second completion counts — integer
// WIPS, exact under any shard count.
func (d *ShardedDriver) WIPSBuckets() []uint32 {
	if len(d.shards) == 0 {
		return nil
	}
	out := make([]uint32, len(d.shards[0].buckets))
	for _, sh := range d.shards {
		for i, v := range sh.buckets {
			out[i] += v
		}
	}
	return out
}

// TraceHash folds the merged completion trace — sorted by (time, session),
// a total order since a session never completes twice in one instant —
// into an FNV-1a fingerprint. Equal hashes across shard counts mean equal
// merged schedules, which is the determinism contract in one number.
func (d *ShardedDriver) TraceHash() uint64 {
	var merged []traceEvent
	for _, sh := range d.shards {
		merged = append(merged, sh.trace...)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].atNs != merged[j].atNs {
			return merged[i].atNs < merged[j].atNs
		}
		return merged[i].id < merged[j].id
	})
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	for _, ev := range merged {
		mix(uint64(ev.atNs))
		mix(uint64(ev.id))
	}
	return h
}

// step issues the next interaction for a bound slot. Fired by the shard
// engine via the pre-bound stepFn — no per-event closure. A session the
// current phase has retired stops here, its request in flight completed.
func (sh *driverShard) step(_ time.Time, arg int64) {
	slot := int(arg)
	if sh.table.id[slot] >= sh.population {
		sh.running[slot] = false
		return
	}
	sh.target.Submit(sh.table.buildRequest(slot), sh.doneFns[slot])
}

// complete is the per-slot completion: account, observe, think and go
// again.
func (sh *driverShard) complete(slot int, resp *servlet.Response) {
	now := sh.engine.Now()
	nowNs := now.Sub(sim.Epoch).Nanoseconds()
	sh.completed++
	if !resp.OK() {
		sh.failed++
	}
	if idx := int(nowNs / int64(time.Second)); idx >= 0 && idx < len(sh.buckets) {
		sh.buckets[idx]++
	}
	// The checksum folds (instant, session) commutatively, so partial sums
	// merge by addition across shards.
	x := uint64(nowNs)*0x9e3779b97f4a7c15 ^ uint64(sh.table.id[slot])*0xff51afd7ed558ccd
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	sh.checksum += x ^ (x >> 27)
	if sh.d.cfg.RecordTrace {
		sh.trace = append(sh.trace, traceEvent{
			atNs: nowNs,
			id:   sh.table.id[slot],
		})
	}
	sh.table.observe(slot, resp)

	think := time.Duration(sh.table.think(slot) * float64(time.Second))
	sh.engine.ScheduleArgAfter(think, sh.stepFn, int64(slot))
}

// ModelTarget is a contention-free synthetic backend: it completes every
// request after a deterministic pseudo-random service time, publishing a
// few navigable item ids. One per shard gives the load tier a closed
// system to exercise a million sessions against without dragging in the
// full container stack — the golden determinism tests and the
// million-session benchmark run over it. Service times are a pure function
// of (seed, interaction, submit instant), so they are identical under any
// shard count.
type ModelTarget struct {
	engine *sim.Engine
	seed   uint64
	baseNs int64
	spanNs int64
	items  int64

	fireFn func(time.Time, int64)
	pend   []mtPending
	free   []int32

	completed uint64
	curSec    int64
	curCount  uint32
	prevCount uint32
}

type mtPending struct {
	req  *servlet.Request
	done servlet.Completion
}

// NewModelTarget builds a model backend on a shard's engine. Service time
// is base plus a hash-spread jitter in [0, jitter).
func NewModelTarget(engine *sim.Engine, seed uint64, base, jitter time.Duration, items int) *ModelTarget {
	if base <= 0 {
		panic("eb: ModelTarget needs base service time > 0")
	}
	if items <= 0 {
		items = 1000
	}
	t := &ModelTarget{
		engine: engine,
		seed:   seed,
		baseNs: base.Nanoseconds(),
		spanNs: jitter.Nanoseconds(),
		items:  int64(items),
	}
	t.fireFn = t.fire
	return t
}

// Submit schedules the request's completion after its service time.
func (t *ModelTarget) Submit(req *servlet.Request, done servlet.Completion) {
	nowNs := t.engine.Now().Sub(sim.Epoch).Nanoseconds()
	h := t.hash(req, nowNs)
	svc := t.baseNs
	if t.spanNs > 0 {
		svc += int64(h % uint64(t.spanNs))
	}

	var slot int32
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		slot = int32(len(t.pend))
		t.pend = append(t.pend, mtPending{})
	}
	t.pend[slot] = mtPending{req: req, done: done}
	t.engine.ScheduleArg(t.engine.Now().Add(time.Duration(svc)), t.fireFn, int64(slot)<<32|int64(uint32(h)))
}

// hash mixes the service-time entropy: seed, interaction and the submit
// instant — all shard-count independent.
func (t *ModelTarget) hash(req *servlet.Request, nowNs int64) uint64 {
	x := t.seed ^ uint64(nowNs)*0x9e3779b97f4a7c15 ^ uint64(interIndex[req.Interaction])<<56
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fire completes one pending request: a pooled OK response carrying a few
// hash-derived item ids, released after the completion returns.
func (t *ModelTarget) fire(now time.Time, arg int64) {
	slot := int32(arg >> 32)
	h := uint64(uint32(arg))
	p := t.pend[slot]
	t.pend[slot] = mtPending{}
	t.free = append(t.free, slot)

	resp := servlet.AcquireResponse()
	for i := uint64(0); i < 3; i++ {
		resp.AddItemID(1 + int64((h+i*0x9e3779b9)%uint64(t.items)))
	}
	t.completed++
	if sec := now.Sub(sim.Epoch).Nanoseconds() / int64(time.Second); sec != t.curSec {
		if sec == t.curSec+1 {
			t.prevCount = t.curCount
		} else {
			t.prevCount = 0
		}
		t.curSec = sec
		t.curCount = 0
	}
	t.curCount++

	p.done(p.req, resp)
	servlet.ReleaseResponse(resp)
	servlet.ReleaseRequest(p.req)
}

// Throughput reports the completion count of the last full second —
// enough signal for the Target interface's WIPS sampling.
func (t *ModelTarget) Throughput() float64 { return float64(t.prevCount) }

// Completed returns the total completions served.
func (t *ModelTarget) Completed() uint64 { return t.completed }

var _ Target = (*ModelTarget)(nil)
