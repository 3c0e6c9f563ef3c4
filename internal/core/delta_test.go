package core

import (
	"testing"
	"time"

	"repro/internal/aspect"
	"repro/internal/jvmheap"
	"repro/internal/monitor"
)

// keyedFlow is a flow-identifiable invocation argument carrying the
// inline flow-mark slot, like the container's request and connection.
type keyedFlow struct {
	mark   int64
	marked bool
}

func (k *keyedFlow) TraceKey() any           { return k }
func (k *keyedFlow) SetFlowMark(v int64)     { k.mark, k.marked = v, true }
func (k *keyedFlow) FlowMark() (int64, bool) { return k.mark, k.marked }
func (k *keyedFlow) ClearFlowMark()          { k.marked = false }

func TestDeltaRecorderAttributesLeaks(t *testing.T) {
	heap := jvmheap.New(1<<24, nil)
	w := aspect.NewWeaver(nil)
	f, err := New(Options{Weaver: w, Heap: heap})
	if err != nil {
		t.Fatal(err)
	}
	flow := &keyedFlow{}
	leaky := w.Weave("svc.leaky", "Service", func(args ...any) (any, error) {
		// The component retains 4KB per execution.
		return nil, heap.Allocate("svc.leaky", 4096)
	})
	clean := w.Weave("svc.clean", "Service", func(args ...any) (any, error) {
		return nil, nil
	})
	for i := 0; i < 10; i++ {
		if _, err := leaky(flow); err != nil {
			t.Fatal(err)
		}
		if _, err := clean(flow); err != nil {
			t.Fatal(err)
		}
	}
	rec := f.DeltaRecorder()
	leakyDelta, n := rec.DeltaOf("svc.leaky")
	if n != 10 || leakyDelta != 10*4096 {
		t.Fatalf("leaky delta = %d over %d, want 40960 over 10", leakyDelta, n)
	}
	cleanDelta, _ := rec.DeltaOf("svc.clean")
	if cleanDelta != 0 {
		t.Fatalf("clean delta = %d, want 0", cleanDelta)
	}
	comps := rec.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %v", comps)
	}
	if rec.Totals()["svc.leaky"] != 40960 {
		t.Fatalf("Totals = %v", rec.Totals())
	}
}

func TestDeltaRecorderBean(t *testing.T) {
	heap := jvmheap.New(1<<20, nil)
	tab := monitor.NewTable()
	rec := NewDeltaRecorder(tab, heap)
	flow := &keyedFlow{}
	rec.before(flow)
	if err := heap.Allocate("svc.A", 512); err != nil {
		t.Fatal(err)
	}
	rec.after(tab.Cell("svc.A"), flow)
	bean := rec.Bean()
	v, err := bean.Invoke("DeltaOf", "svc.A")
	if err != nil || v.(int64) != 512 {
		t.Fatalf("bean DeltaOf = %v, %v", v, err)
	}
	all, err := bean.Invoke("All")
	if err != nil || all.(map[string]int64)["svc.A"] != 512 {
		t.Fatalf("bean All = %v, %v", all, err)
	}
	if _, err := bean.Invoke("DeltaOf"); err == nil {
		t.Fatal("DeltaOf without args accepted")
	}
	if rec.ObjectName().Get("agent") != "HeapDelta" {
		t.Fatalf("ObjectName = %v", rec.ObjectName())
	}
}

func TestDeltaRecorderIgnoresKeylessAndUnmatched(t *testing.T) {
	heap := jvmheap.New(1<<20, nil)
	tab := monitor.NewTable()
	rec := NewDeltaRecorder(tab, heap)
	cell := tab.Cell("svc.A")
	rec.before(nil)               // keyless: ignored
	rec.after(cell, nil)          // keyless: ignored
	rec.after(cell, &keyedFlow{}) // no matching before: ignored
	rec.before("markless")        // no mark slot: not measured
	rec.after(cell, "markless")   // ... on either side
	if total, n := rec.DeltaOf("svc.A"); total != 0 || n != 0 {
		t.Fatalf("phantom delta recorded: %d over %d", total, n)
	}
}

func TestManagerMemoryDeltaResource(t *testing.T) {
	heap := jvmheap.New(1<<24, nil)
	w := aspect.NewWeaver(nil)
	f, err := New(Options{Weaver: w, Heap: heap})
	if err != nil {
		t.Fatal(err)
	}
	comp := &leakyComponent{}
	if err := f.InstrumentComponent("svc.A", comp); err != nil {
		t.Fatal(err)
	}
	flow := &keyedFlow{}
	fn := w.Weave("svc.A", "Service", func(args ...any) (any, error) {
		return nil, heap.Allocate("svc.A", 1024)
	})
	for i := 0; i < 5; i++ {
		if _, err := fn(flow); err != nil {
			t.Fatal(err)
		}
	}
	f.Manager().Sample(time.Now())
	data, err := f.Manager().Data(ResourceMemoryDelta)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 1 || data[0].Consumption != 5*1024 {
		t.Fatalf("delta data = %+v", data)
	}
	top, ok := f.Manager().Map(ResourceMemoryDelta).Top()
	if !ok || top.Name != "svc.A" {
		t.Fatalf("delta map top = %+v", top)
	}
}
