package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/aspect"
	"repro/internal/jmx"
	"repro/internal/rootcause"
)

func TestDataUnknownResource(t *testing.T) {
	f, err := New(Options{Weaver: aspect.NewWeaver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Manager().Data("plutonium"); err == nil {
		t.Fatal("unknown resource accepted")
	}
	r := f.Manager().Rank("plutonium", fakeStrategy{})
	if len(r.Entries) != 0 {
		t.Fatal("unknown resource produced entries")
	}
}

type fakeStrategy struct{}

func (fakeStrategy) Name() string { return "fake" }
func (fakeStrategy) Rank(resource string, data []rootcause.ComponentData) rootcause.Ranking {
	return rootcause.Ranking{Resource: resource, Strategy: "fake"}
}

func TestTimeToExhaustionWithoutHeap(t *testing.T) {
	f, err := New(Options{Weaver: aspect.NewWeaver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Manager().TimeToExhaustion(); got != time.Duration(math.MaxInt64) {
		t.Fatalf("heapless TTE = %v, want +inf sentinel", got)
	}
}

func TestInstrumentRollbackOnProxyConflict(t *testing.T) {
	w := aspect.NewWeaver(nil)
	f, err := New(Options{Weaver: w})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-occupy the AC proxy name so registration fails.
	if err := f.Server().Register(ACProxyName("svc.A"), jmx.NewBean("conflict")); err != nil {
		t.Fatal(err)
	}
	comp := &leakyComponent{}
	if err := f.InstrumentComponent("svc.A", comp); err == nil {
		t.Fatal("instrumentation with proxy conflict accepted")
	}
	// The rollback must leave no trace: the size target and the manager
	// record are gone.
	if _, err := f.ObjectSizeAgent().Measure("svc.A"); err == nil {
		t.Fatal("size target leaked after rollback")
	}
	for _, c := range f.Manager().Components() {
		if c == "svc.A" {
			t.Fatal("manager record leaked after rollback")
		}
	}
}

// TestInstrumentDuplicateKeepsOriginal: a rejected second instrumentation
// of a name must leave the first one whole — its size target measurable
// and its memory consumption still measured by the rounds.
func TestInstrumentDuplicateKeepsOriginal(t *testing.T) {
	f, err := New(Options{Weaver: aspect.NewWeaver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	orig := &leakyComponent{}
	orig.Retain(1 << 20)
	if err := f.InstrumentComponent("svc.A", orig); err != nil {
		t.Fatal(err)
	}
	if err := f.InstrumentComponent("svc.A", &leakyComponent{}); err == nil {
		t.Fatal("duplicate instrumentation accepted")
	}
	n, err := f.ObjectSizeAgent().Measure("svc.A")
	if err != nil || n < 1<<20 {
		t.Fatalf("original size target after rejected duplicate: %d, %v", n, err)
	}
	f.Manager().Sample(time.Unix(0, 0))
	orig.Retain(1 << 20)
	f.Manager().Sample(time.Unix(1, 0))
	data, err := f.Manager().Data(ResourceMemory)
	if err != nil || len(data) != 1 || data[0].Consumption < 1<<20 {
		t.Fatalf("memory evidence after rejected duplicate = %+v, %v", data, err)
	}
}

// TestRoundOutOfOrderPanics: a round stamped before the previous one means
// the caller mixed clocks; it panics before touching any state, and the
// collector stays usable.
func TestRoundOutOfOrderPanics(t *testing.T) {
	f, err := New(Options{Weaver: aspect.NewWeaver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	comp := &leakyComponent{}
	if err := f.InstrumentComponent("svc.A", comp); err != nil {
		t.Fatal(err)
	}
	m := f.Manager()
	m.Sample(time.Unix(10, 0))
	comp.Retain(1 << 20)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-order round did not panic")
			}
		}()
		m.Sample(time.Unix(5, 0))
	}()
	if data, _ := m.Data(ResourceMemory); m.Samples() != 1 || data[0].Consumption != 0 {
		t.Fatalf("after rejected round: Samples = %d, memory = %+v", m.Samples(), data)
	}
	m.Sample(time.Unix(11, 0))
	if data, _ := m.Data(ResourceMemory); m.Samples() != 2 || data[0].Consumption < 1<<20 {
		t.Fatalf("in-order round after a rejected one: Samples = %d, memory = %+v", m.Samples(), data)
	}
}

func TestRoundSameInstantAllowed(t *testing.T) {
	f, err := New(Options{Weaver: aspect.NewWeaver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	f.Manager().Sample(time.Unix(1, 0))
	f.Manager().Sample(time.Unix(1, 0))
	if got := f.Manager().Samples(); got != 2 {
		t.Fatalf("Samples = %d, want 2: equal-instant rounds should be allowed", got)
	}
}

func TestBadPointcutOption(t *testing.T) {
	if _, err := New(Options{Weaver: aspect.NewWeaver(nil), Pointcut: "bogus("}); err == nil {
		t.Fatal("bad pointcut option accepted")
	}
}
