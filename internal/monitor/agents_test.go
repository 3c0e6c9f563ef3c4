package monitor

import (
	"math/rand/v2"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/jmx"
	"repro/internal/jvmheap"
	"repro/internal/objsize"
)

func TestRegisterAllAndQuery(t *testing.T) {
	server := jmx.NewServer(nil)
	heap := jvmheap.New(1<<20, nil)
	tab := NewTable()
	agents := []Agent{
		NewMemoryAgent(heap),
		NewObjectSizeAgent(tab, objsize.Transitive),
		NewCPUAgent(tab),
		NewLiveAgent(tab, Threads),
		NewLiveAgent(tab, Handles),
		NewInvocationAgent(tab),
	}
	if err := RegisterAll(server, agents...); err != nil {
		t.Fatal(err)
	}
	found := server.Query(QueryAllAgents())
	if len(found) != len(agents) {
		t.Fatalf("discovered %d agents, want %d", len(found), len(agents))
	}
}

func TestRegisterAllRollsBack(t *testing.T) {
	server := jmx.NewServer(nil)
	tab := NewTable()
	cpu := NewCPUAgent(tab)
	// Pre-register a conflicting name so the second registration fails.
	if err := server.Register(AgentName("Thread"), jmx.NewBean("conflict")); err != nil {
		t.Fatal(err)
	}
	err := RegisterAll(server, cpu, NewLiveAgent(tab, Threads))
	if err == nil {
		t.Fatal("RegisterAll succeeded despite conflict")
	}
	if server.IsRegistered(cpu.ObjectName()) {
		t.Fatal("partial registration not rolled back")
	}
}

func TestMemoryAgent(t *testing.T) {
	heap := jvmheap.New(1000, nil)
	a := NewMemoryAgent(heap)
	if a.Heap() != heap {
		t.Fatal("Heap accessor broken")
	}
	if err := heap.Allocate("comp", 200); err != nil {
		t.Fatal(err)
	}
	used, err := a.Bean().GetAttribute("Used")
	if err != nil || used.(int64) != 200 {
		t.Fatalf("Used = %v, %v", used, err)
	}
	got, err := a.Bean().Invoke("RetainedBy", "comp")
	if err != nil || got.(int64) != 200 {
		t.Fatalf("RetainedBy = %v, %v", got, err)
	}
	freed, err := a.Bean().Invoke("FreeAll", "comp")
	if err != nil || freed.(int64) != 200 {
		t.Fatalf("FreeAll = %v, %v", freed, err)
	}
	if _, err := a.Bean().Invoke("RetainedBy"); err == nil {
		t.Fatal("RetainedBy with no args should fail")
	}
	if _, err := a.Bean().Invoke("RetainedBy", 7); err == nil {
		t.Fatal("RetainedBy with non-string should fail")
	}
	if _, err := a.Bean().Invoke("GC"); err != nil {
		t.Fatal(err)
	}
	if cap, _ := a.Bean().GetAttribute("Capacity"); cap.(int64) != 1000 {
		t.Fatalf("Capacity = %v", cap)
	}
}

func TestObjectSizeAgent(t *testing.T) {
	a := NewObjectSizeAgent(NewTable(), objsize.OneLevel)
	type comp struct{ leak []byte }
	c := &comp{leak: make([]byte, 4096)}
	a.RegisterTarget("tpcw.A", c)
	n, err := a.Measure("tpcw.A")
	if err != nil || n < 4096 {
		t.Fatalf("Measure = %d, %v", n, err)
	}
	c.leak = append(c.leak, make([]byte, 4096)...)
	n2, _ := a.Measure("tpcw.A")
	if n2 <= n {
		t.Fatalf("size did not grow: %d -> %d", n, n2)
	}
	if _, err := a.Measure("ghost"); err == nil {
		t.Fatal("Measure of unknown target succeeded")
	}
	all := a.MeasureAll()
	if len(all) != 1 || all["tpcw.A"] != n2 {
		t.Fatalf("MeasureAll = %v", all)
	}
	via, err := a.Bean().Invoke("Measure", "tpcw.A")
	if err != nil || via.(int64) != n2 {
		t.Fatalf("bean Measure = %v, %v", via, err)
	}
	if pol, _ := a.Bean().GetAttribute("Policy"); pol.(string) != "one-level" {
		t.Fatalf("Policy = %v", pol)
	}
	a.UnregisterTarget("tpcw.A")
	if len(a.Components()) != 0 {
		t.Fatal("UnregisterTarget left target behind")
	}
}

func TestObjectSizeAgentNilTargetPanics(t *testing.T) {
	a := NewObjectSizeAgent(NewTable(), objsize.Transitive)
	defer func() {
		if recover() == nil {
			t.Fatal("nil target did not panic")
		}
	}()
	a.RegisterTarget("x", nil)
}

func TestCPUAgent(t *testing.T) {
	tab := NewTable()
	a := NewCPUAgent(tab)
	tab.Cell("A").Record(100*time.Millisecond, 100*time.Millisecond, false, true)
	tab.Cell("A").Record(200*time.Millisecond, 200*time.Millisecond, false, true)
	tab.Cell("B").Record(50*time.Millisecond, 50*time.Millisecond, false, true)
	tab.Cell("B").Record(time.Second, time.Second, false, false) // nested: not CPU
	tab.Cell("C")                                                // a cell charged nothing is not listed
	if got := a.TimeOf("A"); got != 300*time.Millisecond {
		t.Fatalf("TimeOf(A) = %v", got)
	}
	if got := a.Total(); got != 350*time.Millisecond {
		t.Fatalf("Total = %v", got)
	}
	all := a.All()
	if len(all) != 2 || all["B"] != 50*time.Millisecond {
		t.Fatalf("All = %v", all)
	}
	sec, err := a.Bean().Invoke("TimeOf", "A")
	if err != nil || sec.(float64) != 0.3 {
		t.Fatalf("bean TimeOf = %v, %v", sec, err)
	}
	if tot, _ := a.Bean().GetAttribute("TotalSeconds"); tot.(float64) != 0.35 {
		t.Fatalf("TotalSeconds = %v", tot)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a negative top-level cost did not panic")
		}
	}()
	tab.Cell("A").Record(-time.Second, 0, false, true)
}

func TestThreadAgent(t *testing.T) {
	tab := NewTable()
	a := NewLiveAgent(tab, Threads)
	handles := NewLiveAgent(tab, Handles)
	a.Acquire("A")
	a.Acquire("A")
	a.Acquire("B")
	handles.Acquire("H")
	if a.LiveOf("A") != 2 || a.TotalLive() != 3 {
		t.Fatalf("live A=%d total=%d", a.LiveOf("A"), a.TotalLive())
	}
	a.Release("A")
	if a.LiveOf("A") != 1 {
		t.Fatalf("after release: live=%d", a.LiveOf("A"))
	}
	if handles.LiveOf("H") != 1 || handles.TotalLive() != 1 || a.LiveOf("H") != 0 {
		t.Fatal("thread and handle counts share a cell but not a counter")
	}
	all := a.All()
	if len(all) != 2 || all["A"] != 1 || all["B"] != 1 {
		t.Fatalf("All = %v", all)
	}
	if !a.ObjectName().Equal(AgentName("Thread")) || !handles.ObjectName().Equal(AgentName("Handle")) {
		t.Fatalf("names = %v, %v", a.ObjectName(), handles.ObjectName())
	}
	n, err := a.Bean().Invoke("LiveOf", "B")
	if err != nil || n.(int64) != 1 {
		t.Fatalf("bean LiveOf = %v, %v", n, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced Release did not panic")
		}
	}()
	a.Release("H") // H holds a handle, but no thread
}

func TestInvocationAgent(t *testing.T) {
	tab := NewTable()
	a := NewInvocationAgent(tab)
	tab.Cell("A").Record(10*time.Millisecond, 10*time.Millisecond, false, true)
	tab.Cell("A").Record(20*time.Millisecond, 25*time.Millisecond, true, false)
	tab.Cell("B").Record(5*time.Millisecond, 5*time.Millisecond, false, true)
	tab.Cell("C") // a cell with no invocation is not listed
	st := a.StatsOf("A")
	if st.Count != 2 || st.Failures != 1 || st.TotalDuration != 30*time.Millisecond {
		t.Fatalf("StatsOf(A) = %+v", st)
	}
	if lat := tab.Cell("A").Latency(); lat != 35*time.Millisecond {
		t.Fatalf("latency(A) = %v", lat)
	}
	if st.MeanDuration() != 15*time.Millisecond {
		t.Fatalf("MeanDuration = %v", st.MeanDuration())
	}
	if (InvocationStats{}).MeanDuration() != 0 {
		t.Fatal("empty MeanDuration != 0")
	}
	if a.Total() != 3 {
		t.Fatalf("Total = %d", a.Total())
	}
	comps := a.Components()
	if len(comps) != 2 || comps[0] != "A" || comps[1] != "B" {
		t.Fatalf("Components = %v", comps)
	}
	if ghost := a.StatsOf("ghost"); ghost.Count != 0 {
		t.Fatalf("ghost stats = %+v", ghost)
	}
	n, err := a.Bean().Invoke("CountOf", "A")
	if err != nil || n.(int64) != 2 {
		t.Fatalf("bean CountOf = %v, %v", n, err)
	}
	allAny, err := a.Bean().Invoke("All")
	if err != nil || allAny.(map[string]int64)["B"] != 1 {
		t.Fatalf("bean All = %v, %v", allAny, err)
	}
}

func TestAgentNames(t *testing.T) {
	if got := AgentName("Memory").String(); got != "monitoring:agent=Memory" {
		t.Fatalf("AgentName = %q", got)
	}
	if !QueryAllAgents().Matches(AgentName("CPU")) {
		t.Fatal("QueryAllAgents does not match agent names")
	}
}

func TestInvocationErrorArgs(t *testing.T) {
	a := NewInvocationAgent(NewTable())
	if _, err := a.Bean().Invoke("CountOf"); err == nil {
		t.Fatal("CountOf without args should fail")
	}
	if _, err := a.Bean().Invoke("CountOf", 3); err == nil {
		t.Fatal("CountOf with int should fail")
	}
}

// TestCellTableConcurrency creates and records into cells from many
// goroutines while every agent reads the table. Run it under -race; the
// final counts must add up exactly.
func TestCellTableConcurrency(t *testing.T) {
	const workers, perWorker = 4, 500
	tab := NewTable()
	inv := NewInvocationAgent(tab)
	cpu := NewCPUAgent(tab)
	threads := NewLiveAgent(tab, Threads)
	sizes := NewObjectSizeAgent(tab, objsize.OneLevel)
	names := []string{"a", "b", "c", "d", "e", "f", "g"}

	done := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = inv.All()
			_ = inv.Components()
			_ = cpu.Total()
			_ = threads.TotalLive()
			_ = sizes.MeasureAll()
			_ = sizes.Components()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				name := names[(w+i)%len(names)]
				c := tab.Cell(name)
				c.Record(time.Microsecond, 2*time.Microsecond, i%10 == 0, true)
				threads.Acquire(name)
				threads.Release(name)
				if i == w {
					sizes.RegisterTarget(name, &struct{ b [64]byte }{})
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	<-readerDone

	const total = workers * perWorker
	if got := inv.Total(); got != total {
		t.Fatalf("Total = %d, want %d", got, total)
	}
	if got := cpu.Total(); got != total*time.Microsecond {
		t.Fatalf("CPU total = %v", got)
	}
	if got := threads.TotalLive(); got != 0 {
		t.Fatalf("live threads = %d after balanced acquire/release", got)
	}
	if got := len(inv.Components()); got != len(names) {
		t.Fatalf("components = %d, want %d (one cell per name)", got, len(names))
	}
}

// TestCellLayout holds the cell at two cache lines, so the allocator's
// 128-byte size class keeps the per-execution counters on a line of their
// own.
func TestCellLayout(t *testing.T) {
	if got := unsafe.Sizeof(Cell{}); got != 128 {
		t.Fatalf("Cell is %d bytes, want 128", got)
	}
	if got := unsafe.Offsetof(Cell{}.name); got != 64 {
		t.Fatalf("Cell.name at offset %d, want 64", got)
	}
}

// TestCellAccounting drives a mix of top-level and nested,
// failed and latency-above-cost executions into a cell and holds its
// readers to the formulas of the earlier cell, which kept overlapping
// counters: service time summed every cost, latency summed the latency
// clamped up to the cost, and CPU summed the positive costs of top-level
// executions.
func TestCellAccounting(t *testing.T) {
	c := NewTable().Cell("A")
	rng := rand.New(rand.NewPCG(38, 1))
	var count, failures int64
	var service, latency, cpu time.Duration
	for i := 0; i < 5000; i++ {
		cost := time.Duration(rng.IntN(4)) * time.Duration(rng.IntN(1000)) * time.Microsecond
		lat := cost
		switch rng.IntN(3) {
		case 0:
			lat += time.Duration(rng.IntN(500)) * time.Microsecond
		case 1:
			lat = time.Duration(rng.IntN(int(cost/time.Microsecond)+1)) * time.Microsecond
		}
		failed, top := rng.IntN(7) == 0, rng.IntN(2) == 0
		c.Record(cost, lat, failed, top)

		count++
		if failed {
			failures++
		}
		service += cost
		latency += max(lat, cost)
		if top && cost > 0 {
			cpu += cost
		}
	}
	want := InvocationStats{Count: count, Failures: failures, TotalDuration: service}
	if got := c.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
	if got := c.Latency(); got != latency {
		t.Fatalf("Latency = %v, want %v", got, latency)
	}
	if got := c.CPU(); got != cpu {
		t.Fatalf("CPU = %v, want %v", got, cpu)
	}
}
