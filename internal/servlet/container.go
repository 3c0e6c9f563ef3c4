package servlet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aspect"
	"repro/internal/jvmheap"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sqldb"
)

// Dispatch errors.
var (
	ErrNoSuchServlet = errors.New("servlet: no such servlet")
	ErrOverloaded    = errors.New("servlet: accept queue full")
	ErrStopped       = errors.New("servlet: container is stopped")
)

// Config sizes a container. The connection pool holds one connection per
// worker, sessions expire after SessionTimeout idle, and service times
// follow DefaultCostModel.
type Config struct {
	// Workers bounds concurrent request execution (default 50).
	Workers int
	// QueueCapacity bounds the accept queue; requests beyond it are
	// rejected with StatusUnavailable (default 500).
	QueueCapacity int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 50
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 500
	}
	return c
}

// Completion receives the outcome of a submitted request. For a pooled
// request (AcquireRequest) the callback is the end of the borrow: the
// container recycles the request and response as soon as it returns, so
// the callback must not retain either (copy out what survives).
type Completion func(req *Request, resp *Response)

type deployed struct {
	servlet Servlet
	woven   func(depth int, args ...any) (any, error)
	// completions counts this interaction's completed requests. It lives
	// on the deployed entry (shared with the perInter map) so completion
	// accounting needs no per-request map lookup or counter allocation.
	completions *metrics.Counter
}

type pending struct {
	req  *Request
	done Completion
}

// pendingQueue is a growable ring buffer of queued requests. The accept
// queue churns on every saturated instant; a ring reuses its backing
// array instead of the append-and-reslice pattern that re-allocates the
// whole queue as it slides. Engine-goroutine only, like all simulation
// worker state.
type pendingQueue struct {
	buf  []pending
	head int
	n    int
}

func (q *pendingQueue) len() int { return q.n }

func (q *pendingQueue) push(p pending) {
	if q.n == len(q.buf) {
		grown := make([]pending, max(16, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = p
	q.n++
}

func (q *pendingQueue) pop() (pending, bool) {
	if q.n == 0 {
		return pending{}, false
	}
	p := q.buf[q.head]
	q.buf[q.head] = pending{} // release references while the slot idles
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return p, true
}

// Container hosts servlets. See the package comment for the two execution
// modes. All simulation-mode entry points (Submit and the completion
// events) must run on the engine goroutine; Invoke may be called from any
// goroutine once Start has returned.
type Container struct {
	engine *sim.Engine
	clock  sim.Clock
	weaver *aspect.Weaver
	cfg    Config

	pool     *sqldb.Pool
	sessions *SessionManager
	heap     *jvmheap.Heap

	// mu serialises Deploy, Start and Stop; frozen (set by Start, never
	// cleared) ends deployment and refuses a second Start.
	mu        sync.Mutex
	frozen    bool
	servlets  map[string]*deployed
	started   atomic.Bool
	stopSweep func()

	// Simulation-mode worker state (engine goroutine only).
	busyWorkers int
	queue       pendingQueue

	// cePool recycles the completion events startJob schedules, so a
	// simulated request costs no closure allocation on its way out.
	cePool sync.Pool

	completed  metrics.Counter
	failed     metrics.Counter
	rejected   metrics.Counter
	respNanos  *metrics.StripedCounter // summed response time, ns
	throughput *metrics.RateWindow
	perInter   sync.Map // interaction -> *metrics.Counter
}

// NewContainer assembles a container. engine may be nil for direct-mode
// use only (Submit then panics). The weaver must not be nil — weaving is
// the whole point.
func NewContainer(engine *sim.Engine, weaver *aspect.Weaver, db *sqldb.DB, heap *jvmheap.Heap, cfg Config) *Container {
	if weaver == nil {
		panic("servlet: nil weaver")
	}
	cfg = cfg.withDefaults()
	var clock sim.Clock
	if engine != nil {
		clock = engine.Clock()
	} else {
		clock = sim.WallClock{}
	}
	c := &Container{
		engine:     engine,
		clock:      clock,
		weaver:     weaver,
		cfg:        cfg,
		pool:       sqldb.NewPool(db, cfg.Workers),
		sessions:   NewSessionManager(clock, heap),
		heap:       heap,
		servlets:   make(map[string]*deployed),
		respNanos:  metrics.NewStripedCounter(),
		throughput: metrics.NewRateWindow(10 * time.Second),
	}
	c.cePool.New = func() any {
		ce := &completionEvent{c: c}
		ce.fire = func(time.Time) { ce.run() }
		return ce
	}
	return c
}

// Weaver returns the aspect weaver components are woven through.
func (c *Container) Weaver() *aspect.Weaver { return c.weaver }

// Sessions returns the session manager.
func (c *Container) Sessions() *SessionManager { return c.sessions }

// Pool returns the database connection pool.
func (c *Container) Pool() *sqldb.Pool { return c.pool }

// Heap returns the simulated JVM heap (may be nil).
func (c *Container) Heap() *jvmheap.Heap { return c.heap }

// Deploy registers a servlet under the given component name and weaves its
// Service method. Servlets are deployed before Start; Deploy after Start
// (or Stop) returns an error.
func (c *Container) Deploy(name string, s Servlet) error {
	if s == nil {
		return errors.New("servlet: deploy of nil servlet")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.frozen {
		return fmt.Errorf("servlet: deploy of %q after Start", name)
	}
	if _, dup := c.servlets[name]; dup {
		return fmt.Errorf("servlet: %q already deployed", name)
	}
	// The inner function computes the simulated service time immediately
	// after the servlet body returns, while still inside the advice
	// chain, so after-advice (the AC) observes the request's reported
	// cost. Join points are counted per flow — the request taps its own
	// Service join point, the bound connection taps the nested DAO ones —
	// so concurrent requests never cross-charge each other.
	inner := func(args ...any) (any, error) {
		req := args[0].(*Request)
		resp := args[1].(*Response)
		err := s.Service(req, resp)
		var cost sqldb.QueryCost
		jps := req.joinPoints
		if req.Conn != nil {
			cost = req.Conn.Cost()
			jps += req.Conn.JoinPointsCrossed()
		}
		req.serviceTime = DefaultCostModel().ServiceTime(cost, jps, req.extraCost)
		return nil, err
	}
	// The per-interaction counter is shared with the perInter map, which
	// InteractionCount reads.
	v, _ := c.perInter.LoadOrStore(name, &metrics.Counter{})
	c.servlets[name] = &deployed{
		servlet:     s,
		woven:       c.weaver.WeaveDepth(name, "Service", inner),
		completions: v.(*metrics.Counter),
	}
	return nil
}

// Servlet returns the deployed servlet instance for name. Like the serve
// path it reads the servlet set without a lock: call it once deployment
// is over, or from the goroutine that deploys.
func (c *Container) Servlet(name string) (Servlet, bool) {
	d, ok := c.servlets[name]
	if !ok {
		return nil, false
	}
	return d.servlet, true
}

func (c *Container) context() *Context {
	return &Context{Pool: c.pool, Sessions: c.sessions, Heap: c.heap}
}

// Start fixes the servlet set, initialises every deployed servlet and
// begins the session expiry sweep (simulation mode only). A container
// starts once: Start after Start or Stop returns an error, as does Start
// after a failed Start.
func (c *Container) Start() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.frozen {
		return errors.New("servlet: container already started; it cannot be restarted")
	}
	c.frozen = true
	ctx := c.context()
	for name, d := range c.servlets {
		if err := d.servlet.Init(ctx); err != nil {
			return fmt.Errorf("servlet: init %q: %w", name, err)
		}
	}
	if c.engine != nil {
		c.stopSweep = c.engine.Every(time.Minute, func(time.Time) { c.sessions.ExpireIdle() })
	}
	c.started.Store(true)
	return nil
}

// Stop ends the session expiry sweep and destroys every servlet. The
// container cannot be restarted; Stop is idempotent.
func (c *Container) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.started.Swap(false) {
		return
	}
	if c.stopSweep != nil {
		c.stopSweep()
	}
	for _, d := range c.servlets {
		d.servlet.Destroy()
	}
}

// Started reports whether Start has completed and Stop has not.
func (c *Container) Started() bool { return c.started.Load() }

// responseFor pairs a request with a response of matching lifecycle:
// pooled requests are served from the response pool (recycled after the
// completion returns), literal requests get a fresh response their owner
// may keep.
func responseFor(req *Request) *Response {
	if req.pooled {
		return AcquireResponse()
	}
	return &Response{Status: StatusOK}
}

// Submit enqueues a request at the current virtual instant; done fires
// when it completes (same instant semantics as the event engine). It must
// be called from the engine goroutine (an EB event). Pooled requests are
// owned by the container from this call on; see the package comment.
func (c *Container) Submit(req *Request, done Completion) {
	if c.engine == nil {
		panic("servlet: Submit on a container without an engine")
	}
	if !c.Started() {
		resp := responseFor(req)
		resp.Status, resp.Err = StatusUnavailable, ErrStopped
		c.finish(req, resp, done)
		return
	}
	req.submitted = c.clock.Now()
	if c.busyWorkers >= c.cfg.Workers {
		if c.queue.len() >= c.cfg.QueueCapacity {
			c.rejected.Inc()
			resp := responseFor(req)
			resp.Status, resp.Err = StatusUnavailable, ErrOverloaded
			c.finish(req, resp, done)
			return
		}
		c.queue.push(pending{req: req, done: done})
		return
	}
	c.startJob(pending{req: req, done: done})
}

// completionEvent carries one in-flight request's completion through the
// engine. The fire closure is bound to the event once at pool-insertion
// time, so scheduling a completion allocates nothing at steady state.
type completionEvent struct {
	c    *Container
	p    pending
	resp *Response
	fire sim.Event
}

func (ce *completionEvent) run() {
	c, p, resp := ce.c, ce.p, ce.resp
	ce.p, ce.resp = pending{}, nil
	c.cePool.Put(ce)
	c.busyWorkers--
	c.finish(p.req, resp, p.done)
	if c.busyWorkers < c.cfg.Workers {
		if next, ok := c.queue.pop(); ok {
			c.startJob(next)
		}
	}
}

// startJob executes the request now (in real code), then schedules its
// completion after the simulated service time.
func (c *Container) startJob(p pending) {
	c.busyWorkers++
	resp, serviceTime := c.execute(p.req)
	ce := c.cePool.Get().(*completionEvent)
	ce.p, ce.resp = p, resp
	c.engine.ScheduleAfter(serviceTime, ce.fire)
}

// Invoke executes a request synchronously (direct mode): no queueing, no
// virtual time. The response and the real execution duration are returned.
// This is what the wall-clock overhead benchmarks drive. For a pooled
// request the response is pooled too: the caller releases both with
// ReleaseRequest and ReleaseResponse when done with them.
func (c *Container) Invoke(req *Request) (*Response, time.Duration) {
	start := time.Now()
	resp, _ := c.execute(req)
	elapsed := time.Since(start)
	c.account(req, resp, elapsed)
	return resp, elapsed
}

// execute runs the servlet through its woven handle with a bound
// connection and session, returning the response and simulated service
// time.
func (c *Container) execute(req *Request) (*Response, time.Duration) {
	d, ok := c.servlets[req.Interaction]
	resp := responseFor(req)
	req.dep = d
	if !ok {
		resp.Status = StatusServerError
		resp.Err = fmt.Errorf("%w: %q", ErrNoSuchServlet, req.Interaction)
		return resp, DefaultCostModel().ServiceTime(sqldb.QueryCost{}, 0, 0)
	}
	if req.SessionID != "" {
		req.Session = c.sessions.GetOrCreate(req.SessionID)
	}
	conn := c.pool.Acquire()
	req.Conn = conn
	req.joinPoints = 0
	if err := safeInvoke(d, req, resp); err != nil {
		resp.Status = StatusServerError
		resp.Err = err
	}
	serviceTime := req.serviceTime
	if serviceTime == 0 {
		// The servlet never reached its cost computation: it panicked,
		// or an around advice returned without proceeding. Charge the
		// fixed dispatch cost only.
		serviceTime = DefaultCostModel().ServiceTime(sqldb.QueryCost{}, 0, req.extraCost)
	}
	req.Conn = nil
	req.args[0], req.args[1] = nil, nil
	c.pool.Release(conn)
	// Injected wait (lock contention, pool queueing) stretches the
	// scheduled completion — the worker stays busy and response times
	// genuinely degrade — without entering serviceTime, so the reported
	// CPU cost stays honest.
	return resp, serviceTime + req.extraWait
}

// safeInvoke dispatches the woven servlet with the request's argument
// scratch, so the variadic call builds no per-request slice. It converts
// a panic into an error, as a J2EE container turns runtime exceptions
// into 500 responses instead of dying.
func safeInvoke(d *deployed, req *Request, resp *Response) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("servlet: panic in %q: %v", req.Interaction, r)
		}
	}()
	req.args[0], req.args[1] = req, resp
	_, err = d.woven(0, req.args[:]...)
	return err
}

// finish accounts a completed simulated request, runs its completion and
// ends the borrow of pooled requests and responses.
func (c *Container) finish(req *Request, resp *Response, done Completion) {
	elapsed := c.clock.Now().Sub(req.submitted)
	c.account(req, resp, elapsed)
	if done != nil {
		done(req, resp)
	}
	ReleaseRequest(req)
	if resp.pooled {
		ReleaseResponse(resp)
	}
}

func (c *Container) account(req *Request, resp *Response, elapsed time.Duration) {
	c.completed.Inc()
	if !resp.OK() {
		c.failed.Inc()
	}
	c.respNanos.Add(int64(elapsed))
	c.throughput.Observe(c.clock.Now())
	if d := req.dep; d != nil {
		d.completions.Inc()
		return
	}
	// Unknown interaction (dispatch error path): fall back to the map.
	v, _ := c.perInter.LoadOrStore(req.Interaction, &metrics.Counter{})
	v.(*metrics.Counter).Inc()
}

// Stats is a point-in-time view of container load metrics.
type Stats struct {
	Completed    int64
	Failed       int64
	Rejected     int64
	BusyWorkers  int
	QueueLength  int
	LiveSessions int
}

// Stats returns current counters. BusyWorkers and QueueLength are only
// meaningful from the engine goroutine in simulation mode.
func (c *Container) Stats() Stats {
	return Stats{
		Completed:    c.completed.Value(),
		Failed:       c.failed.Value(),
		Rejected:     c.rejected.Value(),
		BusyWorkers:  c.busyWorkers,
		QueueLength:  c.queue.len(),
		LiveSessions: c.sessions.Live(),
	}
}

// Throughput returns the completion rate (requests/second) over the last
// 10 seconds at the current instant.
func (c *Container) Throughput() float64 {
	return c.throughput.Rate(c.clock.Now())
}

// MeanResponseTime returns the mean response time of completed requests
// in seconds (0 before the first completion).
func (c *Container) MeanResponseTime() float64 {
	n := c.completed.Value()
	if n == 0 {
		return 0
	}
	return float64(c.respNanos.Value()) / float64(n) / 1e9
}

// InteractionCount returns completions of one interaction.
func (c *Container) InteractionCount(name string) int64 {
	if v, ok := c.perInter.Load(name); ok {
		return v.(*metrics.Counter).Value()
	}
	return 0
}
