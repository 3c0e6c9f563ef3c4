package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/aspect"
	"repro/internal/detect"
	"repro/internal/faultinject"
	"repro/internal/jvmheap"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// soakTarget is a pointer-free-payload component: a struct whose one-level
// object-size walk touches no map (reflect map iteration allocates its
// iterator, which would charge the sizer, not the sampling round, with
// garbage the test is not about).
type soakTarget struct {
	buf   []byte
	count int64
}

// retainedBatch is a SampleObserver that reads the borrowed batch
// synchronously — the compliant consumption pattern — and records the
// slice identity so the test can prove the collector reuses one backing
// array round over round.
type retainedBatch struct {
	rounds    int
	lastFirst *ComponentSample
	sum       int64
}

func (o *retainedBatch) ObserveSample(now time.Time, batch []ComponentSample) {
	o.rounds++
	if len(batch) > 0 {
		o.lastFirst = &batch[0]
	}
	for i := range batch {
		o.sum += batch[i].Usage
	}
}

// TestCollectorSampleSteadyStateAllocs is the sampling half of the
// monitoring plane's zero-garbage contract: with subscribers attached —
// the full detector bank plus a plain observer — a steady-state
// collection round must not allocate.
func TestCollectorSampleSteadyStateAllocs(t *testing.T) {
	f, err := New(Options{Weaver: aspect.NewWeaver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("comp%d", i)
		if err := f.InstrumentComponent(name, &soakTarget{buf: make([]byte, 1024)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.AttachDetectors(detect.Config{}); err != nil {
		t.Fatal(err)
	}
	obs := &retainedBatch{}
	f.Collector().Subscribe(obs)

	now := sim.Epoch
	step := func() {
		now = now.Add(30 * time.Second)
		f.Manager().Sample(now)
	}
	for i := 0; i < 120; i++ { // past the detector window: everything warm
		step()
	}
	first := obs.lastFirst

	if allocs := testing.AllocsPerRun(300, step); allocs >= 1 && !raceEnabled {
		// Under the race detector sync.Pool drops items on purpose, so
		// the walker pool allocates; the assertion only holds in a
		// normal build.
		t.Fatalf("steady-state sampling allocates %.2f objects per round", allocs)
	}
	if obs.lastFirst != first {
		t.Fatal("collector did not reuse the observer batch's backing array")
	}
	if obs.rounds < 420 {
		t.Fatalf("observer saw %d rounds", obs.rounds)
	}
}

// cachedTarget is a component the way the in-tree ones are built: a leak
// store plus maps that fill as it serves.
type cachedTarget struct {
	faultinject.LeakStore
	cache map[string]int
	pages map[int64][]byte
}

// TestCollectorSampleMapTargetsSteadyStateAllocs holds the zero-garbage
// sampling round with map-bearing size targets attached: under the
// framework's one-level policy the size of a map is a closed form in its
// length, and the walk's visited set lives on its stack.
func TestCollectorSampleMapTargetsSteadyStateAllocs(t *testing.T) {
	f, err := New(Options{Weaver: aspect.NewWeaver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		comp := &cachedTarget{cache: make(map[string]int), pages: make(map[int64][]byte)}
		comp.Retain(100 << 10)
		for k := 0; k < 64; k++ {
			comp.cache[fmt.Sprintf("key-%d", k)] = k
			comp.pages[int64(k)] = make([]byte, 512)
		}
		if err := f.InstrumentComponent(fmt.Sprintf("comp%d", i), comp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.AttachDetectors(detect.Config{}); err != nil {
		t.Fatal(err)
	}
	now := sim.Epoch
	step := func() {
		now = now.Add(30 * time.Second)
		f.Manager().Sample(now)
	}
	for i := 0; i < 120; i++ { // past the detector window: everything warm
		step()
	}
	if allocs := testing.AllocsPerRun(300, step); allocs != 0 {
		t.Fatalf("steady-state sampling allocates %.2f objects per round", allocs)
	}
}

// TestCollectorMemoryFlat: the node keeps each component's latest round,
// not its history, so nine thousand more rounds leave the live heap where
// it was.
func TestCollectorMemoryFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory grows with the run")
	}
	f, err := New(Options{Weaver: aspect.NewWeaver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := f.InstrumentComponent(fmt.Sprintf("comp%d", i), &soakTarget{buf: make([]byte, 1024)}); err != nil {
			t.Fatal(err)
		}
	}
	now := sim.Epoch
	rounds := func(n int) uint64 {
		for i := 0; i < n; i++ {
			now = now.Add(30 * time.Second)
			f.Manager().Sample(now)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := rounds(1000)
	after := rounds(9000)
	if after > before && after-before >= 64<<10 {
		t.Fatalf("live heap grew %d bytes over 9000 rounds", after-before)
	}
	runtime.KeepAlive(f)
}

// TestTimeToExhaustionBoundedWindow: the estimate extrapolates over the
// last heapWindow rounds only, so after 10,000 rounds one call still costs
// a fixed, small amount of memory and equals Mann-Kendall/Sen over that
// window.
func TestTimeToExhaustionBoundedWindow(t *testing.T) {
	clock := sim.NewVirtualClock()
	heap := jvmheap.New(1<<40, clock)
	f, err := New(Options{Weaver: aspect.NewWeaver(clock), Clock: clock, Heap: heap})
	if err != nil {
		t.Fatal(err)
	}
	var window []metrics.Point
	for i := 0; i < 10000; i++ {
		clock.Advance(30 * time.Second)
		// Retention grows, with a slope that changes along the run, so
		// the window's estimate differs from the whole history's.
		if err := heap.Allocate("leak", int64(1<<10+i%7*100+i/1000*1000)); err != nil {
			t.Fatal(err)
		}
		f.Manager().Sample(clock.Now())
		window = append(window, metrics.Point{T: clock.Now().UTC(), V: float64(heap.Stats().Retained)})
	}
	window = window[len(window)-heapWindow:]
	want := time.Duration(heap.HeadroomSeconds(metrics.MannKendallSeries(window, 0.05).SenSlope) * float64(time.Second))

	var got time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got = f.Manager().TimeToExhaustion()
	runtime.ReadMemStats(&after)
	if got != want {
		t.Fatalf("TimeToExhaustion = %v, want %v (MK/Sen over the last %d rounds)", got, want, heapWindow)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("one TimeToExhaustion call allocated %d bytes", alloc)
	}
}

// costArg is a fleet-shaped invocation argument: it reports a fixed
// service cost to the AC.
type costArg struct{ cost time.Duration }

func (c *costArg) ReportedCost() time.Duration { return c.cost }

// newAdvisedHandle weaves one instrumented component through a real
// framework and returns the woven call with its argument list.
func newAdvisedHandle(tb testing.TB) (*Framework, aspect.Func, []any) {
	tb.Helper()
	f, err := New(Options{Weaver: aspect.NewWeaver(nil)})
	if err != nil {
		tb.Fatal(err)
	}
	if err := f.InstrumentComponent("app.comp", &soakTarget{buf: make([]byte, 64)}); err != nil {
		tb.Fatal(err)
	}
	fn := f.Weaver().Weave("app.comp", "Service", func(...any) (any, error) { return nil, nil })
	return f, fn, []any{&costArg{cost: 300 * time.Microsecond}}
}

// TestAdvisedCallSteadyStateAllocs holds the AC-advised call at zero
// allocations, in the steady state and right after a generation bump has
// re-resolved and re-bound the chain, and checks that it recorded into
// the component's cell.
func TestAdvisedCallSteadyStateAllocs(t *testing.T) {
	f, fn, args := newAdvisedHandle(t)
	call := func() {
		if _, err := fn(args...); err != nil {
			t.Fatal(err)
		}
	}
	call()
	if allocs := testing.AllocsPerRun(500, call); allocs != 0 && !raceEnabled {
		t.Fatalf("steady-state advised call allocates %.2f objects", allocs)
	}
	f.Weaver().SetComponentEnabled("other", false) // bump the generation
	call()                                         // re-resolve and re-bind
	if allocs := testing.AllocsPerRun(500, call); allocs != 0 && !raceEnabled {
		t.Fatalf("advised call after a re-bind allocates %.2f objects", allocs)
	}
	st := f.InvocationAgent().StatsOf("app.comp")
	if want := int64(1 + 501 + 1 + 501); st.Count != want {
		t.Fatalf("recorded %d executions, want %d", st.Count, want)
	}
	if cpu := f.CPUAgent().TimeOf("app.comp"); cpu != time.Duration(st.Count)*300*time.Microsecond {
		t.Fatalf("CPU = %v over %d executions", cpu, st.Count)
	}
}

// BenchmarkAdvisedCall measures the AC-advised call in the fleet's shape:
// a real framework, one woven handle, a cost-reporting argument.
func BenchmarkAdvisedCall(b *testing.B) {
	_, fn, args := newAdvisedHandle(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(args...); err != nil {
			b.Fatal(err)
		}
	}
}
