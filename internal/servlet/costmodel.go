package servlet

import (
	"time"

	"repro/internal/sqldb"
)

// CostModel converts the real work a request performed into simulated
// service time. The constants are calibrated so the TPC-W interaction mix
// lands in the single-digit-millisecond range the paper's 2010 testbed
// would produce, but only the *relative* costs matter for reproducing the
// experiments' shapes: heavier queries take longer, instrumentation adds a
// small per-advice tax (the source of Fig. 3's ~5% overhead), and injected
// CPU hogs inflate their component's share.
type CostModel struct {
	// PerRequest is the fixed dispatch cost of any request.
	PerRequest time.Duration
	// PerQuery is the per-statement overhead (parse, plan, round trip).
	PerQuery time.Duration
	// PerRowScanned charges storage-engine work.
	PerRowScanned time.Duration
	// PerRowReturned charges serialisation of result rows.
	PerRowReturned time.Duration
	// PerJoinPoint charges each advised (monitored) component execution
	// during the request — the AC's before+after advice plus the JMX
	// agent round trips it performs.
	PerJoinPoint time.Duration
}

// DefaultCostModel returns the calibrated model used by the experiments.
// PerJoinPoint is the one constant derived from the paper rather than
// chosen: Fig. 3 reports ~5% overhead with every component monitored, and
// the model's overhead is
//
//	mean join points per interaction × PerJoinPoint ÷ mean service time.
//
// The Shopping mix crosses 1.9 advised executions per interaction (the
// servlet plus the DAO components it calls). With the other four constants
// as below its mean service time is 2.4 ms at the test scale (500 items,
// 300 customers), 2.8 ms at the default population run for 0.35 of the
// schedule and 3.2 ms for the full schedule, so 5% asks for 62, 72 and
// 83 µs; 70 µs puts the three Fig. 3 runs at 5.6%, 4.8% and 4.3%. The
// constant has to be re-derived whenever the queries an interaction issues
// change, because the denominator moves: it was 200 µs while best_sellers
// fetched every sold item with a Get of its own and the mean service time
// was 4.6 to 8.2 ms.
func DefaultCostModel() CostModel {
	return CostModel{
		PerRequest:     1500 * time.Microsecond,
		PerQuery:       250 * time.Microsecond,
		PerRowScanned:  2 * time.Microsecond,
		PerRowReturned: 6 * time.Microsecond,
		PerJoinPoint:   70 * time.Microsecond,
	}
}

// ServiceTime computes the simulated duration of a request that issued the
// given database work, crossed joinPoints advised executions, and carries
// extra injected cost.
func (m CostModel) ServiceTime(cost sqldb.QueryCost, joinPoints int64, extra time.Duration) time.Duration {
	d := m.PerRequest +
		time.Duration(cost.Queries)*m.PerQuery +
		time.Duration(cost.RowsScanned)*m.PerRowScanned +
		time.Duration(cost.RowsReturned)*m.PerRowReturned +
		time.Duration(joinPoints)*m.PerJoinPoint +
		extra
	if d < 0 {
		panic("servlet: negative service time")
	}
	return d
}
