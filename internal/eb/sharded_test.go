package eb

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/servlet"
	"repro/internal/sim"
	"repro/internal/tpcw"
)

// runSharded runs one load-tier configuration to completion and returns
// the driver for inspection.
func runSharded(t *testing.T, cfg ShardedConfig, d time.Duration) *ShardedDriver {
	t.Helper()
	drv := NewShardedDriver(cfg, nil)
	drv.Run(d, nil)
	return drv
}

// goldenClosedCfg is the pinned closed-loop determinism workload.
func goldenClosedCfg(shards int) ShardedConfig {
	return ShardedConfig{
		Shards:      shards,
		Seed:        42,
		Mix:         Shopping,
		Sessions:    120,
		RecordTrace: true,
	}
}

// TestShardedDriverGoldenAcrossShardCounts is the determinism contract of
// the load tier: the same seed must produce a byte-identical merged
// completion schedule and WIPS series under any shard count. The trace
// hash is additionally pinned to a constant so an accidental change to any
// draw path (matrix compilation, Zipf table, think-time stream, model
// service times) fails loudly rather than silently shifting results.
func TestShardedDriverGoldenAcrossShardCounts(t *testing.T) {
	ref := runSharded(t, goldenClosedCfg(1), 2*time.Minute)
	if ref.Completed() == 0 {
		t.Fatal("reference run completed nothing")
	}
	refHash := ref.TraceHash()
	refBuckets := ref.WIPSBuckets()

	for _, shards := range []int{2, 3, 8} {
		got := runSharded(t, goldenClosedCfg(shards), 2*time.Minute)
		if got.Completed() != ref.Completed() || got.Failed() != ref.Failed() {
			t.Fatalf("shards=%d: completed/failed %d/%d, want %d/%d",
				shards, got.Completed(), got.Failed(), ref.Completed(), ref.Failed())
		}
		if h := got.TraceHash(); h != refHash {
			t.Fatalf("shards=%d: trace hash %#x, want %#x", shards, h, refHash)
		}
		gb := got.WIPSBuckets()
		if len(gb) != len(refBuckets) {
			t.Fatalf("shards=%d: %d buckets, want %d", shards, len(gb), len(refBuckets))
		}
		for i := range gb {
			if gb[i] != refBuckets[i] {
				t.Fatalf("shards=%d: bucket %d = %d, want %d", shards, i, gb[i], refBuckets[i])
			}
		}
	}

	// The pinned constant: math.Log/Pow keep the trace arch-dependent in
	// principle, so the literal is asserted only on the architecture it was
	// recorded on; the cross-shard equality above holds everywhere.
	const goldenHash = uint64(0xa8cd087da7fea35a) // recorded on linux/amd64
	if runtime.GOARCH == "amd64" {
		if refHash != goldenHash {
			t.Errorf("golden trace hash drifted: got %#x, want %#x (re-pin only with an intentional workload change)", refHash, goldenHash)
		}
	}
}

// TestShardedDriverSteadyStateAllocFree is the load-tier memory claim in
// miniature: after construction, driving sessions — schedule, submit,
// complete, think, reschedule — allocates
// nothing per event. Total run-side mallocs are bounded by a constant
// (bucket slices, a few amortised arena doublings), not by event count.
func TestShardedDriverSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; malloc counting is meaningless")
	}
	d := NewShardedDriver(ShardedConfig{
		Seed:     11,
		Sessions: 400,
	}, nil)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d.Run(5*time.Minute, nil)
	runtime.ReadMemStats(&after)

	events := d.group.Shard(0).Executed()
	if events < 10000 {
		t.Fatalf("run executed only %d events; not a steady-state sample", events)
	}
	mallocs := after.Mallocs - before.Mallocs
	// A per-event allocation would show up as >=10k mallocs here.
	if mallocs > 500 {
		t.Fatalf("run performed %d mallocs over %d events; hot path is allocating", mallocs, events)
	}
}

// TestSessionTableMatchesIDNotSlot pins the identity rule that makes the
// walk shard-count independent: a session's request stream is a function
// of its id, not of the slot or table it lands in.
func TestSessionTableMatchesIDNotSlot(t *testing.T) {
	zipf := sim.NewZipfTable(1000, 0.8)
	matrix := compileMatrix(TransitionMatrix(Shopping))
	unames := unameVocabulary(1440)

	a := newSessionTable(4, 42, zipf, matrix, unames)
	b := newSessionTable(16, 42, zipf, matrix, unames)
	a.bind(0, 77)
	b.bind(9, 77)

	ok := &servlet.Response{Status: servlet.StatusOK}
	for i := 0; i < 200; i++ {
		ra := a.buildRequest(0)
		rb := b.buildRequest(9)
		if ra.Interaction != rb.Interaction {
			t.Fatalf("step %d: interactions diverged: %s vs %s", i, ra.Interaction, rb.Interaction)
		}
		for _, p := range []string{"SUBJECT", "FIELD", "TERM", "ACTION", "UNAME"} {
			if ra.Param(p) != rb.Param(p) {
				t.Fatalf("step %d %s: %q vs %q", i, p, ra.Param(p), rb.Param(p))
			}
		}
		for _, p := range []string{"I_ID", "QTY"} {
			va, oka := ra.Int64Param(p)
			vb, okb := rb.Int64Param(p)
			if va != vb || oka != okb {
				t.Fatalf("step %d %s: %d/%v vs %d/%v", i, p, va, oka, vb, okb)
			}
		}
		a.observe(0, ok)
		b.observe(9, ok)
		servlet.ReleaseRequest(ra)
		servlet.ReleaseRequest(rb)
	}
}

// shiftSchedule is the pinned schedule workload: the population goes up
// and down (40 → 120 → 60 sessions) while the mix shifts at both
// boundaries, the second of which falls inside a pacing window.
func shiftSchedule() []Phase {
	return []Phase{
		{Duration: 40 * time.Second, EBs: 40, Mix: Browsing},
		{Duration: 50*time.Second + 30*time.Millisecond, EBs: 120, Mix: Shopping},
		{Duration: 45 * time.Second, EBs: 60, Mix: Ordering},
	}
}

// TestScheduleGoldenAcrossShardCounts extends the determinism contract to
// phase schedules: which engine enters a phase for a session never changes
// what the session does, so checksum, merged trace and WIPS series are
// identical at any shard count.
func TestScheduleGoldenAcrossShardCounts(t *testing.T) {
	run := func(shards int) *ShardedDriver {
		// Sessions is deliberately below the schedule's peak: arming the
		// schedule grows the tables.
		d := NewShardedDriver(ShardedConfig{Shards: shards, Seed: 42, Sessions: 10, RecordTrace: true}, nil)
		if err := d.RunSchedule(shiftSchedule(), nil); err != nil {
			t.Fatal(err)
		}
		return d
	}
	ref := run(1)
	buckets := ref.WIPSBuckets()
	// The model backend answers in milliseconds, so WIPS ≈ population / 7 s.
	for _, c := range []struct {
		from, to int
		ebs      float64
	}{{15, 40, 40}, {55, 90, 120}, {110, 135, 60}} {
		if got, want := meanWIPS(buckets[c.from:c.to]), c.ebs/7; got < 0.7*want || got > 1.3*want {
			t.Errorf("seconds %d-%d: %.1f WIPS, want ~%.1f for %v sessions", c.from, c.to, got, want, c.ebs)
		}
	}
	for _, shards := range []int{2, 4} {
		got := run(shards)
		if got.Completed() != ref.Completed() || got.Checksum() != ref.Checksum() {
			t.Fatalf("shards=%d: completed/checksum %d/%#x, want %d/%#x",
				shards, got.Completed(), got.Checksum(), ref.Completed(), ref.Checksum())
		}
		if h := got.TraceHash(); h != ref.TraceHash() {
			t.Fatalf("shards=%d: trace hash %#x, want %#x", shards, h, ref.TraceHash())
		}
		if gb := got.WIPSBuckets(); !slices.Equal(gb, buckets) {
			t.Fatalf("shards=%d: WIPS buckets differ", shards)
		}
	}
}

// recordingTarget completes every request at once and logs which session
// asked for what, and when.
type recordingTarget struct {
	engine *sim.Engine
	log    []recordedRequest
}

type recordedRequest struct {
	at          time.Duration
	session     string
	interaction string
}

func (r *recordingTarget) Submit(req *servlet.Request, done servlet.Completion) {
	r.log = append(r.log, recordedRequest{r.engine.Now().Sub(sim.Epoch), req.SessionID, req.Interaction})
	resp := servlet.AcquireResponse()
	done(req, resp)
	servlet.ReleaseResponse(resp)
	servlet.ReleaseRequest(req)
}

func (r *recordingTarget) Throughput() float64 { return 0 }

// TestScheduleRetiresAndResumesSessions pins what a shrink and a regrowth
// do to one session: retired, it stops at its next step and asks for
// nothing more; wanted again, it carries on its own walk and stream — it
// is not bound afresh — while a session the shrink never touched is
// oblivious to the whole affair.
func TestScheduleRetiresAndResumesSessions(t *testing.T) {
	run := func(phases []Phase) (*ShardedDriver, *recordingTarget) {
		rec := &recordingTarget{}
		d := NewShardedDriver(ShardedConfig{Seed: 5, Mix: Shopping}, func(_ int, engine *sim.Engine) Target {
			rec.engine = engine
			return rec
		})
		if err := d.RunSchedule(phases, nil); err != nil {
			t.Fatal(err)
		}
		return d, rec
	}
	const phase = 5 * time.Minute
	d, rec := run([]Phase{
		{Duration: phase, EBs: 3, Mix: Shopping},
		{Duration: phase, EBs: 1, Mix: Shopping},
		{Duration: phase, EBs: 3, Mix: Shopping},
	})

	var before, during, after int
	for _, r := range rec.log {
		if r.session != "ebs-2" {
			continue
		}
		switch {
		case r.at <= phase:
			before++
		case r.at <= 2*phase:
			during++
		default:
			after++
		}
	}
	if before < 10 || after < 10 {
		t.Fatalf("session 2 issued %d requests before its retirement and %d after, want dozens", before, after)
	}
	if during != 0 {
		t.Errorf("session 2 issued %d requests while retired", during)
	}
	if got := int(d.shards[0].table.issued[2]); got != before+after {
		t.Errorf("session 2 counts %d requests issued, the target saw %d: it was bound afresh", got, before+after)
	}

	// Session 0 stays in the population throughout, so its requests are
	// those of a run nothing ever happened in.
	_, steady := run([]Phase{{Duration: 3 * phase, EBs: 1, Mix: Shopping}})
	var churned []recordedRequest
	for _, r := range rec.log {
		if r.session == "ebs-0" {
			churned = append(churned, r)
		}
	}
	if !slices.Equal(churned, steady.log) {
		t.Errorf("session 0 issued %d requests beside the churn, %d alone: they differ", len(churned), len(steady.log))
	}
}

// TestSecondRunResumesPopulation pins the resume contract the chaos
// scenarios rely on (run, act on the stack off-engine, run again): a
// second run carries on the live sessions, so two back-to-back runs are
// one run of the summed duration — nobody is restarted, nobody runs twice.
func TestSecondRunResumesPopulation(t *testing.T) {
	whole := runSharded(t, goldenClosedCfg(2), 2*time.Minute)

	split := NewShardedDriver(goldenClosedCfg(2), nil)
	split.Run(45*time.Second, nil)
	first := split.Completed()
	split.Run(75*time.Second, nil)
	if first == 0 || first >= split.Completed() {
		t.Fatalf("completed %d after the first run, %d after the second", first, split.Completed())
	}
	if split.Completed() != whole.Completed() || split.TraceHash() != whole.TraceHash() {
		t.Fatalf("45s + 75s completed %d (trace %#x), one 2m run %d (%#x)",
			split.Completed(), split.TraceHash(), whole.Completed(), whole.TraceHash())
	}
	if !slices.Equal(split.WIPSBuckets(), whole.WIPSBuckets()) {
		t.Fatal("WIPS buckets of the split run differ from the whole run's")
	}
}

// TestCompiledMatrixCoversSource checks the lowering is lossless: every
// row's targets and cumulative total match the source matrix.
func TestCompiledMatrixCoversSource(t *testing.T) {
	for _, mix := range []Mix{Browsing, Shopping, Ordering} {
		src := TransitionMatrix(mix)
		cm := compileMatrix(src)
		for from, row := range src {
			cr := cm.rows[interIndex[from]]
			if len(cr.to) != len(row) {
				t.Fatalf("%v/%s: %d targets, want %d", mix, from, len(cr.to), len(row))
			}
			var total float64
			for i, tr := range row {
				if tpcw.Interactions[cr.to[i]] != tr.To {
					t.Fatalf("%v/%s[%d]: target %s, want %s", mix, from, i, tpcw.Interactions[cr.to[i]], tr.To)
				}
				total += tr.Weight
			}
			if got := cr.cum[len(cr.cum)-1]; got < total-1e-9 || got > total+1e-9 {
				t.Fatalf("%v/%s: cumulative %v, want %v", mix, from, got, total)
			}
		}
	}
}

// TestCompiledMatrixPicksByWeight pins the one weighted draw a session
// makes per transition: targets are chosen in proportion to their weights,
// a zero-weight target never, and a row the matrix lacks leads home.
func TestCompiledMatrixPicksByWeight(t *testing.T) {
	cm := compileMatrix(Matrix{tpcw.CompHome: {
		{To: tpcw.CompBestSellers, Weight: 1},
		{To: tpcw.CompAdminConfirm, Weight: 0},
		{To: tpcw.CompProductDetail, Weight: 3},
	}})
	home := interIndex[tpcw.CompHome]
	counts := map[string]int{}
	rng := sim.NewRand64(19)
	for i := 0; i < 100000; i++ {
		counts[tpcw.Interactions[cm.next(home, rng.Float64())]]++
	}
	if counts[tpcw.CompAdminConfirm] != 0 || len(counts) != 2 {
		t.Fatalf("picked %v: zero-weight or unlisted targets chosen", counts)
	}
	ratio := float64(counts[tpcw.CompProductDetail]) / float64(counts[tpcw.CompBestSellers])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weighted ratio = %.2f, want ~3", ratio)
	}
	if got := cm.next(interIndex[tpcw.CompBuyConfirm], 0.5); got != home {
		t.Fatalf("transition out of a missing row leads to %s, want home", tpcw.Interactions[got])
	}
}

// TestModelTargetRecyclesRequests pins the pooling contract: requests and
// responses flow back to the servlet pools after completion, so a fixed
// in-flight population reuses a fixed working set.
func TestModelTargetRecyclesRequests(t *testing.T) {
	engine := sim.NewEngine()
	mt := NewModelTarget(engine, 1, time.Millisecond, 0, 100)
	var completions int
	for i := 0; i < 100; i++ {
		req := servlet.AcquireRequest()
		req.Interaction = tpcw.CompHome
		mt.Submit(req, func(_ *servlet.Request, resp *servlet.Response) {
			if !resp.OK() {
				t.Error("model response not OK")
			}
			if len(resp.ItemIDs()) == 0 {
				t.Error("model response has no item ids")
			}
			completions++
		})
		engine.RunFor(2 * time.Millisecond)
	}
	if completions != 100 {
		t.Fatalf("completions = %d", completions)
	}
	if mt.Completed() != 100 {
		t.Fatalf("target counted %d", mt.Completed())
	}
	if inflight := len(mt.pend) - len(mt.free); inflight != 0 {
		t.Fatalf("%d requests still pending", inflight)
	}
}

// BenchmarkDriverMillionSessions is the headline load-tier benchmark: one
// million concurrent closed-loop sessions on the session table, driven
// against per-shard model targets. Timed region is the steady-state run;
// construction (tables, arena reservation, vocabulary) is untimed. Run
// with -benchtime=1x as a smoke test; allocs/op stays bounded by the
// per-run bucket slice, not by the ~10^5 events driven.
func BenchmarkDriverMillionSessions(b *testing.B) {
	benchmarkDriverSessions(b, 1_000_000, 2*time.Second)
}

// BenchmarkDriverSessions100k is the continuously-gated sibling: big
// enough to exercise the table at scale, cheap enough for benchdiff runs.
func BenchmarkDriverSessions100k(b *testing.B) {
	benchmarkDriverSessions(b, 100_000, 2*time.Second)
}

func benchmarkDriverSessions(b *testing.B, sessions int, horizon time.Duration) {
	b.ReportAllocs()
	var events uint64
	var perSession float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		d := NewShardedDriver(ShardedConfig{
			Seed:     1,
			Sessions: sessions,
		}, nil)
		runtime.ReadMemStats(&after)
		perSession = float64(after.HeapAlloc-before.HeapAlloc) / float64(sessions)
		b.StartTimer()
		d.Run(horizon, nil)
		b.StopTimer()
		for s := 0; s < d.Shards(); s++ {
			events += d.group.Shard(s).Executed()
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(perSession, "B/session")
}
