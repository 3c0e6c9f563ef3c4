package sqldb

import (
	"fmt"
)

// QueryCost is the work a connection has performed since its cost was last
// reset. The container converts it into simulated service time, which is
// how query shape influences response times and throughput.
type QueryCost struct {
	Queries      int64
	RowsScanned  int64
	RowsReturned int64
}

// Add accumulates other into c.
func (c *QueryCost) Add(other QueryCost) {
	c.Queries += other.Queries
	c.RowsScanned += other.RowsScanned
	c.RowsReturned += other.RowsReturned
}

// Conn is a database connection: the handle DAOs execute through. Each
// Conn tracks the cost of the work it performed. A Conn is not safe for
// concurrent use — exactly like a JDBC connection, one request borrows it
// from the pool, uses it, and returns it.
//
// Result borrow contract: rows returned by Select and Get are stored in
// connection-owned scratch buffers that the next operation on the same
// Conn reuses. They are valid until that next operation; callers that
// need a row beyond it must copy it first. This is what makes the query
// hot path allocation-free at steady state — the same discipline the
// monitoring plane's borrowed-batch SampleObserver contract applies to
// sampling rounds.
type Conn struct {
	db         *DB
	pool       *Pool
	cost       QueryCost
	joinPoints int64

	// flowMark is an 8-byte per-flow scratch slot for monitoring advice
	// (the heap level at before-advice); see SetFlowMark.
	flowMark    int64
	flowMarkSet bool

	// stash is an arbitrary per-connection scratch object application
	// layers attach (the TPC-W DAOs keep their reusable result buffers
	// here); see Stash.
	stash any

	// argScratch backs CallArgs so woven DAO invocations build their
	// variadic argument slice without allocating.
	argScratch [6]any

	rowBuf  Row // Get result buffer
	scratch queryScratch
}

// Select runs q against the named table. The returned rows are valid
// until the next operation on this Conn (see the borrow contract in the
// Conn doc).
func (c *Conn) Select(table string, q Query) ([]Row, error) {
	t, err := c.db.Table(table)
	if err != nil {
		return nil, err
	}
	rows, scanned, err := t.selectRows(q, &c.scratch)
	c.cost.Queries++
	c.cost.RowsScanned += scanned
	c.cost.RowsReturned += int64(len(rows))
	c.db.charge(1, scanned)
	return rows, err
}

// Each runs q against the named table and calls fn with every matching
// row, in the order Select would return them, until fn returns false —
// Select without the copy, for callers that fold rows into something
// smaller. It charges RowsScanned for the rows examined and RowsReturned
// for the rows fn saw.
//
// Borrow rule: the row is the engine's own, lent for the duration of one
// call. fn must not keep it or any slice of it, must not write to it, and
// — because it runs under the table's read lock — must not call back into
// the same table, through this or any other connection: a write would wait
// on that lock forever, and so would a read once a writer is queued.
func (c *Conn) Each(table string, q Query, fn func(Row) bool) error {
	t, err := c.db.Table(table)
	if err != nil {
		return err
	}
	scanned, visited, err := t.each(q, &c.scratch, fn)
	c.cost.Queries++
	c.cost.RowsScanned += scanned
	c.cost.RowsReturned += visited
	c.db.charge(1, scanned)
	return err
}

// Get reads one row by primary key. The returned row is valid until the
// next operation on this Conn (see the borrow contract in the Conn doc).
func (c *Conn) Get(table string, pk any) (Row, bool, error) {
	t, err := c.db.Table(table)
	if err != nil {
		return nil, false, err
	}
	r, ok := t.getRow(pk, c.rowBuf)
	if ok {
		c.rowBuf = r
	}
	c.cost.Queries++
	c.cost.RowsScanned++
	if ok {
		c.cost.RowsReturned++
	}
	c.db.charge(1, 1)
	return r, ok, nil
}

// Insert adds a row and returns its primary key.
func (c *Conn) Insert(table string, row Row) (any, error) {
	t, err := c.db.Table(table)
	if err != nil {
		return nil, err
	}
	pk, err := t.Insert(row)
	c.cost.Queries++
	c.cost.RowsScanned++
	c.db.charge(1, 1)
	return pk, err
}

// Update modifies the row with the given primary key.
func (c *Conn) Update(table string, pk any, set map[string]any) error {
	t, err := c.db.Table(table)
	if err != nil {
		return err
	}
	err = t.Update(pk, set)
	c.cost.Queries++
	c.cost.RowsScanned++
	c.db.charge(1, 1)
	return err
}

// UpdateCol modifies one column of the row with the given primary key —
// the single-assignment form of Update that spares hot write paths the
// per-call map literal.
func (c *Conn) UpdateCol(table string, pk any, col string, val any) error {
	t, err := c.db.Table(table)
	if err != nil {
		return err
	}
	err = t.UpdateCol(pk, col, val)
	c.cost.Queries++
	c.cost.RowsScanned++
	c.db.charge(1, 1)
	return err
}

// Delete removes the row with the given primary key.
func (c *Conn) Delete(table string, pk any) (bool, error) {
	t, err := c.db.Table(table)
	if err != nil {
		return false, err
	}
	ok := t.Delete(pk)
	c.cost.Queries++
	c.cost.RowsScanned++
	c.db.charge(1, 1)
	return ok, nil
}

// Cost returns the accumulated cost since the last ResetCost.
func (c *Conn) Cost() QueryCost { return c.cost }

// TraceKey identifies the request flow this connection is bound to (the
// connection itself); see the aspect package's Keyed interface.
func (c *Conn) TraceKey() any { return c }

// JoinPointCrossed implements the aspect package's JoinPointTap: the
// weaver calls it once per advised execution whose first argument is this
// connection, so nested DAO join points are charged to the request the
// connection is bound to rather than read off a process-global counter.
func (c *Conn) JoinPointCrossed() { c.joinPoints++ }

// JoinPointsCrossed returns the advised executions recorded since the
// last ResetCost.
func (c *Conn) JoinPointsCrossed() int64 { return c.joinPoints }

// SetFlowMark stores a per-flow monitoring scratch value on the
// connection. Monitoring advice that brackets an execution (the AC's
// before/after heap snapshot) keys its open state by flow; an inline slot
// on the flow object itself replaces a per-execution map entry, which is
// what keeps always-on instrumentation off the garbage collector's back.
func (c *Conn) SetFlowMark(v int64) { c.flowMark, c.flowMarkSet = v, true }

// FlowMark returns the stored per-flow mark and whether one is set.
func (c *Conn) FlowMark() (int64, bool) { return c.flowMark, c.flowMarkSet }

// ClearFlowMark removes the per-flow mark.
func (c *Conn) ClearFlowMark() { c.flowMarkSet = false }

// Stash returns the per-connection scratch object set by SetStash (nil
// when unset). Application layers use it to keep reusable result buffers
// with the connection they borrow — the stash survives Release, so a
// pooled connection's scratch warms up once and is reused by every
// request that later borrows it.
func (c *Conn) Stash() any { return c.stash }

// SetStash attaches a per-connection scratch object.
func (c *Conn) SetStash(v any) { c.stash = v }

// Args2 (and its siblings) assemble a variadic argument slice in
// connection-owned scratch, so woven DAO invocations (func(args ...any))
// pass their arguments without allocating a fresh slice per call. The
// fixed arity is what keeps the call itself allocation-free — a variadic
// helper would just move the slice literal to the caller. The returned
// slice is valid until the next ArgsN on this Conn; it must not be
// retained — the same borrow discipline as query results.
func (c *Conn) Args2(a0, a1 any) []any {
	c.argScratch[0], c.argScratch[1] = a0, a1
	return c.argScratch[:2]
}

// Args3 is Args2 for three arguments.
func (c *Conn) Args3(a0, a1, a2 any) []any {
	c.argScratch[0], c.argScratch[1], c.argScratch[2] = a0, a1, a2
	return c.argScratch[:3]
}

// Args4 is Args2 for four arguments.
func (c *Conn) Args4(a0, a1, a2, a3 any) []any {
	c.argScratch[0], c.argScratch[1], c.argScratch[2], c.argScratch[3] = a0, a1, a2, a3
	return c.argScratch[:4]
}

// ResetCost zeroes the accumulated cost; the pool does this on Release.
func (c *Conn) ResetCost() {
	c.cost = QueryCost{}
	c.joinPoints = 0
	c.flowMarkSet = false
}

// Pool is a fixed-size connection pool, mirroring the data-source pool a
// J2EE container provides. Acquire blocks when the pool is exhausted,
// which under overload surfaces as queueing — a behaviour the container's
// saturation model depends on.
type Pool struct {
	db    *DB
	conns chan *Conn
	size  int
}

// NewPool creates a pool of size connections against db.
func NewPool(db *DB, size int) *Pool {
	if size <= 0 {
		panic("sqldb: pool size must be positive")
	}
	p := &Pool{db: db, conns: make(chan *Conn, size), size: size}
	for i := 0; i < size; i++ {
		p.conns <- &Conn{db: db, pool: p}
	}
	return p
}

// Size returns the pool capacity.
func (p *Pool) Size() int { return p.size }

// Idle returns the number of idle connections.
func (p *Pool) Idle() int { return len(p.conns) }

// Acquire borrows a connection, blocking until one is free.
func (p *Pool) Acquire() *Conn { return <-p.conns }

// TryAcquire borrows a connection without blocking; it reports whether one
// was available.
func (p *Pool) TryAcquire() (*Conn, bool) {
	select {
	case c := <-p.conns:
		return c, true
	default:
		return nil, false
	}
}

// Release returns a connection to the pool with its cost reset. Releasing
// a foreign or double-released connection panics: both are serious caller
// bugs that would silently distort cost accounting.
func (p *Pool) Release(c *Conn) {
	if c == nil || c.pool != p {
		panic("sqldb: Release of connection not owned by this pool")
	}
	c.ResetCost()
	select {
	case p.conns <- c:
	default:
		panic(fmt.Sprintf("sqldb: pool overflow on Release (size %d)", p.size))
	}
}
