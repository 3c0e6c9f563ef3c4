package servlet

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/aspect"
	"repro/internal/jvmheap"
	"repro/internal/sim"
	"repro/internal/sqldb"
)

// testServlet exercises the lifecycle and issues a configurable amount of
// database work per request.
type testServlet struct {
	inits, destroys int
	fail            error
	extra           time.Duration
	body            func(req *Request, resp *Response) error
}

func (s *testServlet) Init(*Context) error { s.inits++; return nil }
func (s *testServlet) Destroy()            { s.destroys++ }
func (s *testServlet) Service(req *Request, resp *Response) error {
	if s.fail != nil {
		return s.fail
	}
	if s.extra > 0 {
		req.AddCost(s.extra)
	}
	if s.body != nil {
		return s.body(req, resp)
	}
	rows, err := req.Conn.Select("item", sqldb.Where("i_subject", sqldb.Eq, "ARTS"))
	if err != nil {
		return err
	}
	resp.Set("rows", len(rows))
	return nil
}

func testDB(t *testing.T) *sqldb.DB {
	t.Helper()
	db := sqldb.NewDB()
	tb, err := db.CreateTable(sqldb.Schema{
		Name: "item",
		Columns: []sqldb.Column{
			{Name: "i_id", Type: sqldb.Int64},
			{Name: "i_subject", Type: sqldb.String},
		},
		PrimaryKey: "i_id",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		subject := "ARTS"
		if i%2 == 0 {
			subject = "COMPUTERS"
		}
		if _, err := tb.Insert(sqldb.Row{nil, subject}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// newDeployedContainer returns a container with the echo servlet deployed
// but not yet started.
func newDeployedContainer(t *testing.T, cfg Config) (*sim.Engine, *Container, *testServlet) {
	t.Helper()
	engine := sim.NewEngine()
	weaver := aspect.NewWeaver(engine.Clock())
	heap := jvmheap.New(1<<26, engine.Clock())
	c := NewContainer(engine, weaver, testDB(t), heap, cfg)
	s := &testServlet{}
	if err := c.Deploy("tpcw.echo", s); err != nil {
		t.Fatal(err)
	}
	return engine, c, s
}

func newTestContainer(t *testing.T, cfg Config) (*sim.Engine, *Container, *testServlet) {
	t.Helper()
	engine, c, s := newDeployedContainer(t, cfg)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	return engine, c, s
}

func TestLifecycle(t *testing.T) {
	_, c, s := newTestContainer(t, Config{})
	if s.inits != 1 {
		t.Fatalf("inits = %d", s.inits)
	}
	if !c.Started() {
		t.Fatal("not started")
	}
	if err := c.Start(); err == nil {
		t.Fatal("double Start accepted")
	}
	c.Stop()
	if s.destroys != 1 {
		t.Fatalf("destroys = %d", s.destroys)
	}
	c.Stop() // idempotent
	if s.destroys != 1 {
		t.Fatal("Stop not idempotent")
	}
}

// TestStopIsFinal pins the lifecycle contract: Stop ends the session
// expiry sweep, and a stopped container refuses Start and Deploy instead
// of re-initialising destroyed servlets.
func TestStopIsFinal(t *testing.T) {
	engine, c, s := newTestContainer(t, Config{})
	if n := engine.Len(); n != 1 {
		t.Fatalf("pending events after Start = %d, want the expiry sweep only", n)
	}
	c.Stop()
	engine.RunFor(5 * time.Minute)
	if n := engine.Len(); n != 0 {
		t.Fatalf("pending events 5 minutes after Stop = %d, want 0", n)
	}
	if err := c.Start(); err == nil {
		t.Fatal("Start after Stop accepted")
	}
	if c.Started() || s.inits != 1 || engine.Len() != 0 {
		t.Fatalf("refused restart changed state: started=%v inits=%d pending=%d",
			c.Started(), s.inits, engine.Len())
	}
	if err := c.Deploy("tpcw.late", &testServlet{}); err == nil {
		t.Fatal("Deploy after Stop accepted")
	}
}

func TestDeployErrors(t *testing.T) {
	_, c, _ := newDeployedContainer(t, Config{})
	if err := c.Deploy("tpcw.echo", &testServlet{}); err == nil {
		t.Fatal("duplicate deploy accepted")
	}
	if err := c.Deploy("x", nil); err == nil {
		t.Fatal("nil servlet accepted")
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// The servlet set is fixed at Start.
	late := &testServlet{}
	if err := c.Deploy("tpcw.late", late); err == nil {
		t.Fatal("deploy after Start accepted")
	}
	if late.inits != 0 {
		t.Fatal("refused servlet was initialised")
	}
	if _, ok := c.Servlet("tpcw.late"); ok {
		t.Fatal("refused servlet is reachable through Servlet")
	}
	resp, _ := c.Invoke(&Request{Interaction: "tpcw.late"})
	if !errors.Is(resp.Err, ErrNoSuchServlet) {
		t.Fatalf("refused servlet served: %+v", resp)
	}
	if _, ok := c.Servlet("tpcw.echo"); !ok {
		t.Fatal("Servlet lookup failed")
	}
}

func TestSubmitCompletes(t *testing.T) {
	engine, c, _ := newTestContainer(t, Config{})
	var gotResp *Response
	var rt time.Duration
	engine.ScheduleAfter(0, func(time.Time) {
		req := &Request{Interaction: "tpcw.echo", SessionID: "s1"}
		c.Submit(req, func(r *Request, resp *Response) {
			gotResp = resp
			rt = engine.Now().Sub(r.Submitted())
		})
	})
	engine.RunFor(30 * time.Second)
	if gotResp == nil || !gotResp.OK() {
		t.Fatalf("resp = %+v", gotResp)
	}
	if gotResp.Get("rows").(int) != 3 {
		t.Fatalf("rows = %v", gotResp.Get("rows"))
	}
	if rt <= 0 {
		t.Fatalf("response time = %v, want positive virtual duration", rt)
	}
	st := c.Stats()
	if st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if c.InteractionCount("tpcw.echo") != 1 {
		t.Fatal("per-interaction count missing")
	}
	if c.Sessions().Live() != 1 {
		t.Fatal("session not created")
	}
}

func TestSubmitUnknownServlet(t *testing.T) {
	engine, c, _ := newTestContainer(t, Config{})
	var resp *Response
	engine.ScheduleAfter(0, func(time.Time) {
		c.Submit(&Request{Interaction: "ghost"}, func(_ *Request, r *Response) { resp = r })
	})
	engine.RunFor(30 * time.Second)
	if resp.Status != StatusServerError || !errors.Is(resp.Err, ErrNoSuchServlet) {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestServletErrorBecomes500(t *testing.T) {
	engine, c, s := newTestContainer(t, Config{})
	boom := errors.New("boom")
	s.fail = boom
	var resp *Response
	engine.ScheduleAfter(0, func(time.Time) {
		c.Submit(&Request{Interaction: "tpcw.echo"}, func(_ *Request, r *Response) { resp = r })
	})
	engine.RunFor(30 * time.Second)
	if resp.Status != StatusServerError || !errors.Is(resp.Err, boom) {
		t.Fatalf("resp = %+v", resp)
	}
	if c.Stats().Failed != 1 {
		t.Fatal("failure not counted")
	}
}

func TestQueueingUnderLoad(t *testing.T) {
	engine, c, s := newTestContainer(t, Config{Workers: 1})
	s.extra = 10 * time.Millisecond
	var order []time.Duration
	engine.ScheduleAfter(0, func(now time.Time) {
		for i := 0; i < 3; i++ {
			c.Submit(&Request{Interaction: "tpcw.echo"}, func(r *Request, _ *Response) {
				order = append(order, engine.Now().Sub(sim.Epoch))
			})
		}
	})
	engine.RunFor(30 * time.Second)
	if len(order) != 3 {
		t.Fatalf("completions = %d", len(order))
	}
	// With one worker, completions are serialised ~10ms apart.
	if order[1]-order[0] < 10*time.Millisecond || order[2]-order[1] < 10*time.Millisecond {
		t.Fatalf("no serialisation: %v", order)
	}
}

func TestQueueOverflowRejects(t *testing.T) {
	engine, c, s := newTestContainer(t, Config{Workers: 1, QueueCapacity: 1})
	s.extra = 10 * time.Millisecond
	rejected := 0
	engine.ScheduleAfter(0, func(time.Time) {
		for i := 0; i < 5; i++ {
			c.Submit(&Request{Interaction: "tpcw.echo"}, func(_ *Request, r *Response) {
				if r.Status == StatusUnavailable {
					rejected++
				}
			})
		}
	})
	engine.RunFor(30 * time.Second)
	if rejected != 3 {
		t.Fatalf("rejected = %d, want 3 (1 running + 1 queued)", rejected)
	}
	if c.Stats().Rejected != 3 {
		t.Fatalf("Rejected counter = %d", c.Stats().Rejected)
	}
}

func TestSubmitAfterStop(t *testing.T) {
	engine, c, _ := newTestContainer(t, Config{})
	c.Stop()
	var resp *Response
	engine.ScheduleAfter(0, func(time.Time) {
		c.Submit(&Request{Interaction: "tpcw.echo"}, func(_ *Request, r *Response) { resp = r })
	})
	engine.RunFor(30 * time.Second)
	if resp.Status != StatusUnavailable || !errors.Is(resp.Err, ErrStopped) {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestInvokeDirectMode(t *testing.T) {
	_, c, _ := newTestContainer(t, Config{})
	resp, elapsed := c.Invoke(&Request{Interaction: "tpcw.echo", SessionID: "d1"})
	if !resp.OK() {
		t.Fatalf("resp = %+v", resp)
	}
	if elapsed <= 0 {
		t.Fatal("no wall time measured")
	}
	if c.Stats().Completed != 1 {
		t.Fatal("Invoke not accounted")
	}
}

// TestInvokeConcurrent drives the lock-free servlet lookup from many
// goroutines while another polls the container's read accessors.
func TestInvokeConcurrent(t *testing.T) {
	_, c, _ := newTestContainer(t, Config{})
	const goroutines, calls = 8, 200
	done := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, ok := c.Servlet("tpcw.echo"); !ok || !c.Started() {
				t.Error("container lost its servlet while serving")
				return
			}
			_ = c.Stats()
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				req := AcquireRequest()
				req.Interaction = "tpcw.echo"
				resp, _ := c.Invoke(req)
				if !resp.OK() {
					t.Errorf("resp = %+v", resp)
				}
				ReleaseResponse(resp)
				ReleaseRequest(req)
			}
		}()
	}
	wg.Wait()
	close(done)
	<-polled
	const want = goroutines * calls
	if got := c.Stats().Completed; got != want {
		t.Fatalf("Completed = %d, want %d", got, want)
	}
	if got := c.InteractionCount("tpcw.echo"); got != want {
		t.Fatalf("InteractionCount = %d, want %d", got, want)
	}
}

func TestServiceTimeGrowsWithWork(t *testing.T) {
	engine, c, s := newTestContainer(t, Config{})
	var light, heavy time.Duration
	s.body = func(req *Request, resp *Response) error {
		_, err := req.Conn.Select("item", sqldb.Where("i_subject", sqldb.Eq, "ARTS"))
		return err
	}
	engine.ScheduleAfter(0, func(time.Time) {
		c.Submit(&Request{Interaction: "tpcw.echo"}, func(r *Request, _ *Response) {
			light = r.ReportedCost()
		})
	})
	engine.RunFor(30 * time.Second)
	s.body = func(req *Request, resp *Response) error {
		for i := 0; i < 50; i++ {
			if _, err := req.Conn.Select("item", sqldb.Where("i_subject", sqldb.Eq, "ARTS")); err != nil {
				return err
			}
		}
		return nil
	}
	engine.ScheduleAfter(0, func(time.Time) {
		c.Submit(&Request{Interaction: "tpcw.echo"}, func(r *Request, _ *Response) {
			heavy = r.ReportedCost()
		})
	})
	engine.RunFor(30 * time.Second)
	if heavy <= light {
		t.Fatalf("service time did not grow with work: light=%v heavy=%v", light, heavy)
	}
}

func TestMonitoringAddsVirtualOverhead(t *testing.T) {
	engine, c, _ := newTestContainer(t, Config{})
	measure := func() time.Duration {
		var d time.Duration
		engine.ScheduleAfter(0, func(time.Time) {
			c.Submit(&Request{Interaction: "tpcw.echo"}, func(r *Request, _ *Response) {
				d = r.ReportedCost()
			})
		})
		engine.RunFor(30 * time.Second)
		return d
	}
	plain := measure()
	if err := c.Weaver().Register(&aspect.Aspect{
		Name:     "probe",
		Pointcut: aspect.MustPointcut("within(tpcw.*)"),
		Before:   func(*aspect.JoinPoint) {},
	}); err != nil {
		t.Fatal(err)
	}
	monitored := measure()
	if monitored <= plain {
		t.Fatalf("monitored %v not above plain %v", monitored, plain)
	}
	overhead := float64(monitored-plain) / float64(plain)
	if overhead > 0.20 {
		t.Fatalf("virtual overhead %.1f%%, suspiciously high", overhead*100)
	}
}

func TestThroughputAndMeanResponseTime(t *testing.T) {
	engine, c, _ := newTestContainer(t, Config{})
	engine.ScheduleAfter(0, func(time.Time) {
		for i := 0; i < 20; i++ {
			c.Submit(&Request{Interaction: "tpcw.echo"}, nil)
		}
	})
	// Stay inside the 10s rate window so the completions are visible.
	engine.RunFor(time.Second)
	if got := c.Stats().Completed; got != 20 {
		t.Fatalf("completed = %d", got)
	}
	if c.MeanResponseTime() <= 0 {
		t.Fatal("zero mean response time after completions")
	}
	if c.Throughput() <= 0 {
		t.Fatal("zero throughput after completions")
	}
}

func TestSessionExpirySweep(t *testing.T) {
	engine, c, _ := newTestContainer(t, Config{})
	engine.ScheduleAfter(0, func(time.Time) {
		c.Submit(&Request{Interaction: "tpcw.echo", SessionID: "old"}, nil)
	})
	engine.RunFor(SessionTimeout - time.Minute)
	if c.Sessions().Live() != 1 {
		t.Fatalf("live sessions = %d before the idle timeout", c.Sessions().Live())
	}
	engine.RunFor(5 * time.Minute)
	if c.Sessions().Live() != 0 {
		t.Fatalf("live sessions = %d after expiry window", c.Sessions().Live())
	}
	if c.Sessions().Expired() != 1 {
		t.Fatalf("expired = %d", c.Sessions().Expired())
	}
}

func TestSessionHeapAccounting(t *testing.T) {
	engine, c, _ := newTestContainer(t, Config{})
	engine.ScheduleAfter(0, func(time.Time) {
		for i := 0; i < 10; i++ {
			id := string(rune('a' + i))
			c.Submit(&Request{Interaction: "tpcw.echo", SessionID: id}, nil)
		}
	})
	engine.RunFor(time.Second)
	if got := c.Heap().RetainedBy("container.sessions"); got != 10*4096 {
		t.Fatalf("session heap = %d", got)
	}
	engine.RunFor(SessionTimeout + 5*time.Minute)
	if got := c.Heap().RetainedBy("container.sessions"); got != 0 {
		t.Fatalf("session heap after expiry = %d", got)
	}
}

func TestNegativeAddCostPanics(t *testing.T) {
	req := &Request{}
	defer func() {
		if recover() == nil {
			t.Fatal("negative AddCost did not panic")
		}
	}()
	req.AddCost(-time.Second)
}

func TestSessionAttributes(t *testing.T) {
	m := NewSessionManager(nil, nil)
	s := m.GetOrCreate("s1")
	s.Set("cart", 42)
	if s.Get("cart").(int) != 42 || s.Get("ghost") != nil {
		t.Fatal("session attribute roundtrip failed")
	}
	if s.ID() != "s1" {
		t.Fatalf("ID = %q", s.ID())
	}
	again := m.GetOrCreate("s1")
	if again != s {
		t.Fatal("GetOrCreate created duplicate")
	}
	if _, ok := m.Peek("s1"); !ok {
		t.Fatal("Peek missed live session")
	}
	if _, ok := m.Peek("ghost"); ok {
		t.Fatal("Peek found ghost")
	}
	if m.Created() != 1 {
		t.Fatalf("Created = %d", m.Created())
	}
	if m.String() == "" {
		t.Fatal("empty String")
	}
}

func TestSessionEmptyIDPanics(t *testing.T) {
	m := NewSessionManager(nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("empty session id did not panic")
		}
	}()
	m.GetOrCreate("")
}

func TestPanickingServletBecomes500(t *testing.T) {
	engine, c, s := newTestContainer(t, Config{})
	s.body = func(*Request, *Response) error { panic("servlet bug") }
	var resp *Response
	var rt time.Duration
	engine.ScheduleAfter(0, func(time.Time) {
		c.Submit(&Request{Interaction: "tpcw.echo"}, func(r *Request, resp2 *Response) {
			resp, rt = resp2, engine.Now().Sub(r.Submitted())
		})
	})
	engine.RunFor(30 * time.Second)
	if resp == nil || resp.Status != StatusServerError {
		t.Fatalf("panic response = %+v", resp)
	}
	// The panic skipped the servlet's cost computation: the request is
	// charged the fixed dispatch cost only.
	if want := DefaultCostModel().ServiceTime(sqldb.QueryCost{}, 0, 0); rt != want {
		t.Fatalf("panicking request completed after %v, want %v", rt, want)
	}
	// The container keeps serving afterwards.
	s.body = nil
	var ok *Response
	engine.ScheduleAfter(0, func(time.Time) {
		c.Submit(&Request{Interaction: "tpcw.echo"}, func(_ *Request, r *Response) { ok = r })
	})
	engine.RunFor(30 * time.Second)
	if ok == nil || !ok.OK() {
		t.Fatalf("container dead after panic: %+v", ok)
	}
	// The pooled connection was released despite the panic.
	if c.Pool().Idle() != c.Pool().Size() {
		t.Fatalf("connection leaked on panic: idle=%d", c.Pool().Idle())
	}
}

// TestAroundWithoutProceedChargesDispatchCost covers the other way a
// request skips the servlet's cost computation: an around advice that
// returns without proceeding.
func TestAroundWithoutProceedChargesDispatchCost(t *testing.T) {
	engine, c, _ := newTestContainer(t, Config{})
	if err := c.Weaver().Register(&aspect.Aspect{
		Name:     "veto",
		Pointcut: aspect.MustPointcut("within(tpcw.*)"),
		Around:   func(*aspect.JoinPoint, aspect.Proceed) (any, error) { return nil, nil },
	}); err != nil {
		t.Fatal(err)
	}
	var resp *Response
	var rt time.Duration
	engine.ScheduleAfter(0, func(time.Time) {
		c.Submit(&Request{Interaction: "tpcw.echo"}, func(r *Request, resp2 *Response) {
			resp, rt = resp2, engine.Now().Sub(r.Submitted())
		})
	})
	engine.RunFor(30 * time.Second)
	if resp == nil || !resp.OK() || resp.Get("rows") != nil {
		t.Fatalf("vetoed response = %+v, want OK without the servlet's rows", resp)
	}
	if want := DefaultCostModel().ServiceTime(sqldb.QueryCost{}, 0, 0); rt != want {
		t.Fatalf("vetoed request completed after %v, want %v", rt, want)
	}
}

func TestCostModelMonotone(t *testing.T) {
	m := DefaultCostModel()
	base := m.ServiceTime(sqldb.QueryCost{}, 0, 0)
	if base != m.PerRequest {
		t.Fatalf("base = %v", base)
	}
	more := m.ServiceTime(sqldb.QueryCost{Queries: 3, RowsScanned: 100, RowsReturned: 10}, 2, time.Millisecond)
	if more <= base {
		t.Fatal("cost model not monotone")
	}
}
