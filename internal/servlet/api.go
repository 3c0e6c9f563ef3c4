// Package servlet is the reproduction's web application server — the role
// Apache Tomcat 5.5 plays in the paper's testbed. It hosts components
// implementing the Servlet interface, binds one database connection per
// request, manages sessions, bounds concurrency with a worker-pool model,
// and — critically for the paper — routes every component execution
// through the aspect weaver so that monitoring can be injected without the
// application noticing.
//
// The servlet set is fixed at Start: servlets are deployed before it,
// Deploy is refused after it, and the request path reads the deployed
// set without a lock. A stopped container cannot be restarted.
//
// The container runs in two modes. In simulation mode, requests are
// submitted at virtual instants, component code executes for real, and the
// observed database work is converted into simulated service time through
// the cost model; queueing and completion are scheduled on the
// discrete-event engine. In direct mode (used by the wall-clock overhead
// benchmarks), Invoke executes a request synchronously on the caller's
// goroutine.
//
// # Request lifecycle and pooling
//
// Requests and responses follow an explicit borrow/release contract so
// the serve path allocates nothing at steady state (the same discipline
// the monitoring plane applies to sampling rounds):
//
//   - AcquireRequest borrows a recycled request; fill it with SetParam /
//     SetInt64Param (or the plain exported fields) and hand it to Submit
//     or Invoke.
//   - In simulation mode the container owns a pooled request from Submit
//     on: after the Completion callback returns, the request and the
//     pooled response it was served with are recycled. A Completion for a
//     pooled request must therefore not retain the request, the response,
//     or any buffer reachable from them (Response.ItemIDs included) past
//     its own return — copy out what must survive.
//   - In direct mode Invoke returns the response to the caller, who
//     releases both with ReleaseRequest and ReleaseResponse when done.
//
// Requests constructed literally (&Request{...}) remain fully supported:
// they are never recycled, their responses are freshly allocated, and
// completions may retain them — the pre-pooling behaviour.
package servlet

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/jvmheap"
	"repro/internal/sqldb"
)

// Servlet is the component contract, mirroring javax.servlet: Init once at
// container Start, Service per request, Destroy at container Stop.
type Servlet interface {
	Init(ctx *Context) error
	Service(req *Request, resp *Response) error
	Destroy()
}

// Context is what servlets receive at Init: the shared resources of the
// container.
type Context struct {
	// Pool is the container's database connection pool.
	Pool *sqldb.Pool
	// Sessions is the container's session manager.
	Sessions *SessionManager
	// Heap is the simulated JVM heap requests allocate from.
	Heap *jvmheap.Heap
}

// param is one inline request parameter (the pooled, map-free store).
type param struct {
	key, val string
}

// intParam is one inline integer parameter; numeric identifiers (item
// ids, quantities) are carried typed so neither the browser emulator nor
// the servlet round-trips them through strconv per request.
type intParam struct {
	key string
	val int64
}

// Request is one web interaction request.
type Request struct {
	// Interaction is the target component name (the servlet name).
	Interaction string
	// SessionID identifies the emulated browser's session ("" for none).
	SessionID string
	// Params carries the request parameters. Pooled requests use the
	// inline SetParam/SetInt64Param store instead; Params remains for
	// literally-constructed requests and takes precedence when non-nil.
	Params map[string]string
	// Conn is the database connection the container bound to this
	// request; servlets and DAOs execute queries through it.
	Conn *sqldb.Conn
	// Session is resolved by the container before Service runs.
	Session *Session

	submitted   time.Time
	extraCost   time.Duration
	extraWait   time.Duration
	serviceTime time.Duration
	joinPoints  int64 // advised executions this request crossed, for overhead accounting

	// pooled marks requests born from AcquireRequest: the container
	// recycles them (and their responses) after completion.
	pooled  bool
	params  []param    // inline string parameters
	iparams []intParam // inline integer parameters

	// args is the woven-invocation scratch: the servlet's (req, resp)
	// argument slice lives here so dispatch builds no per-request slice.
	args [2]any
	// dep is the resolved servlet entry, cached so completion accounting
	// reaches its per-interaction counter without a map lookup.
	dep *deployed

	// flowMark mirrors sqldb.Conn's per-flow monitoring scratch for the
	// window before a connection is bound.
	flowMark    int64
	flowMarkSet bool
}

var requestPool = sync.Pool{New: func() any { return &Request{pooled: true} }}

// AcquireRequest borrows a recycled request from the package pool. The
// caller fills it and passes it to Submit (the container releases it
// after the completion callback returns) or Invoke (the caller releases
// it with ReleaseRequest).
func AcquireRequest() *Request {
	return requestPool.Get().(*Request)
}

// ReleaseRequest resets a pooled request and returns it to the pool. It
// is a no-op for literally-constructed requests, so callers may release
// unconditionally. The request must not be used after release.
func ReleaseRequest(req *Request) {
	if req == nil || !req.pooled {
		return
	}
	req.reset()
	requestPool.Put(req)
}

// reset clears a request for reuse, keeping grown buffer capacity.
func (r *Request) reset() {
	r.Interaction = ""
	r.SessionID = ""
	r.Params = nil
	r.Conn = nil
	r.Session = nil
	r.submitted = time.Time{}
	r.extraCost = 0
	r.extraWait = 0
	r.serviceTime = 0
	r.joinPoints = 0
	r.params = r.params[:0]
	r.iparams = r.iparams[:0]
	r.args[0], r.args[1] = nil, nil
	r.dep = nil
	r.flowMarkSet = false
}

// SetParam stores a string parameter in the request's inline store,
// overwriting an existing value for the key.
func (r *Request) SetParam(name, value string) {
	for i := range r.params {
		if r.params[i].key == name {
			r.params[i].val = value
			return
		}
	}
	r.params = append(r.params, param{key: name, val: value})
}

// SetInt64Param stores an integer parameter in the request's inline
// store, overwriting an existing value for the key. Int64Param reads it
// back without a strconv round trip.
func (r *Request) SetInt64Param(name string, value int64) {
	for i := range r.iparams {
		if r.iparams[i].key == name {
			r.iparams[i].val = value
			return
		}
	}
	r.iparams = append(r.iparams, intParam{key: name, val: value})
}

// Param returns the named parameter ("" when absent). Integer parameters
// set via SetInt64Param are formatted on demand (an allocation — hot
// paths that expect numbers should use Int64Param).
func (r *Request) Param(name string) string {
	if r.Params != nil {
		if v, ok := r.Params[name]; ok {
			return v
		}
	}
	for i := range r.params {
		if r.params[i].key == name {
			return r.params[i].val
		}
	}
	for i := range r.iparams {
		if r.iparams[i].key == name {
			return strconv.FormatInt(r.iparams[i].val, 10)
		}
	}
	return ""
}

// Int64Param returns the named parameter as an integer, reporting whether
// it is present and numeric. Typed parameters are returned directly;
// string parameters are parsed.
func (r *Request) Int64Param(name string) (int64, bool) {
	for i := range r.iparams {
		if r.iparams[i].key == name {
			return r.iparams[i].val, true
		}
	}
	if s := r.Param(name); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v, true
		}
	}
	return 0, false
}

// AddCost charges additional simulated CPU time to this request. The
// CPU-hog fault injector uses it to model computational aging bugs.
func (r *Request) AddCost(d time.Duration) {
	if d < 0 {
		panic("servlet: negative AddCost")
	}
	r.extraCost += d
}

// AddWait charges additional simulated wait time to this request: time
// the caller spends blocked without consuming CPU (lock contention, pool
// queueing). It stretches the response latency the container schedules
// and the latency agents record, but — unlike AddCost — leaves the
// reported CPU cost untouched, so latency-only aging shows no resource
// growth. The lock-contention and pool-exhaustion fault injectors use it.
func (r *Request) AddWait(d time.Duration) {
	if d < 0 {
		panic("servlet: negative AddWait")
	}
	r.extraWait += d
}

// ReportedCost returns the simulated service time of the completed
// request. It implements the cost-reporting contract the monitoring
// aspects look for on join point arguments, which is how virtual durations
// reach the CPU and invocation agents even though the virtual clock stands
// still during component execution.
func (r *Request) ReportedCost() time.Duration { return r.serviceTime }

// ReportedLatency returns the simulated response latency of the completed
// request: the service time plus any injected wait. It implements the
// latency-reporting contract the monitoring aspects look for next to
// ReportedCost; for a healthy request the two coincide.
func (r *Request) ReportedLatency() time.Duration { return r.serviceTime + r.extraWait }

// Submitted returns when the request entered the container.
func (r *Request) Submitted() time.Time { return r.submitted }

// JoinPointCrossed implements the aspect package's JoinPointTap: the
// weaver calls it once per advised execution whose first argument is this
// request (the servlet's own Service join point). Together with the tap
// on the bound connection this gives each request an exact join point
// count even when many requests dispatch concurrently.
func (r *Request) JoinPointCrossed() { r.joinPoints++ }

// TraceKey identifies the request flow for trace-collecting aspects: the
// bound database connection, which nested DAO executions also carry. It
// falls back to the request itself before a connection is bound.
func (r *Request) TraceKey() any {
	if r.Conn != nil {
		return r.Conn
	}
	return r
}

// SetFlowMark stores a per-flow monitoring scratch value; see
// sqldb.Conn.SetFlowMark — the request carries the same slot for flows
// without a bound connection.
func (r *Request) SetFlowMark(v int64) { r.flowMark, r.flowMarkSet = v, true }

// FlowMark returns the stored per-flow mark and whether one is set.
func (r *Request) FlowMark() (int64, bool) { return r.flowMark, r.flowMarkSet }

// ClearFlowMark removes the per-flow mark.
func (r *Request) ClearFlowMark() { r.flowMarkSet = false }

// HTTP-ish response status codes the container uses.
const (
	StatusOK          = 200
	StatusServerError = 500
	StatusUnavailable = 503
)

// itemIDsKey is the Data key under which navigable item ids were
// historically published; the typed ItemIDs store replaces it on the hot
// path and Get/ItemIDs bridge the two for compatibility.
const itemIDsKey = "item_ids"

// Response is the outcome of one request.
type Response struct {
	// Status is the response code (StatusOK on success).
	Status int
	// Err is the component error for StatusServerError responses.
	Err error
	// Data carries interaction results (the "page" content); the
	// emulated browsers read navigation state from it.
	Data map[string]any

	// pooled marks responses born from AcquireResponse.
	pooled bool
	// itemIDs is the typed navigation-id store: every browsing
	// interaction publishes item ids, so they are first-class rather than
	// boxed into Data per request.
	itemIDs    []int64
	itemIDsSet bool
}

var responsePool = sync.Pool{New: func() any { return &Response{Status: StatusOK, pooled: true} }}

// AcquireResponse borrows a recycled response from the package pool.
// The container acquires one per pooled request; direct-mode callers
// release it with ReleaseResponse.
func AcquireResponse() *Response {
	return responsePool.Get().(*Response)
}

// ReleaseResponse resets a pooled response and returns it to the pool.
// It is a no-op for literally-constructed responses. The response (and
// any buffer obtained from it, ItemIDs included) must not be used after
// release.
func ReleaseResponse(resp *Response) {
	if resp == nil || !resp.pooled {
		return
	}
	resp.reset()
	responsePool.Put(resp)
}

// reset clears a response for reuse, keeping the Data map's buckets and
// the item-id buffer's capacity.
func (resp *Response) reset() {
	resp.Status = StatusOK
	resp.Err = nil
	clear(resp.Data)
	resp.itemIDs = resp.itemIDs[:0]
	resp.itemIDsSet = false
}

// Set stores a result value, allocating the map on first use.
func (resp *Response) Set(key string, v any) {
	if resp.Data == nil {
		resp.Data = make(map[string]any)
	}
	resp.Data[key] = v
}

// Get reads a result value (nil when absent). Item ids published through
// AddItemID surface under the "item_ids" key for compatibility.
func (resp *Response) Get(key string) any {
	if resp.Data != nil {
		if v, ok := resp.Data[key]; ok {
			return v
		}
	}
	if key == itemIDsKey && resp.itemIDsSet {
		return resp.itemIDs
	}
	return nil
}

// AddItemID publishes one navigable item id on the response. The typed
// store replaces Set("item_ids", []int64{...}) on the serve path: the
// backing buffer is recycled with the response, so steady-state requests
// publish their links without allocating.
func (resp *Response) AddItemID(id int64) {
	resp.itemIDs = append(resp.itemIDs, id)
	resp.itemIDsSet = true
}

// ItemIDs returns the navigable item ids of the page, from the typed
// store or, for responses filled via Set, the "item_ids" Data key. For a
// pooled response the returned slice is borrowed: it is valid until the
// response is released.
func (resp *Response) ItemIDs() []int64 {
	if resp.itemIDsSet {
		return resp.itemIDs
	}
	ids, _ := resp.Get(itemIDsKey).([]int64)
	return ids
}

// OK reports whether the response succeeded.
func (resp *Response) OK() bool { return resp.Status == StatusOK }
