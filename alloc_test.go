package repro

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/aspect"
	"repro/internal/servlet"
	"repro/internal/sqldb"
	"repro/internal/tpcw"
)

// TestRequestPathSteadyStateAllocs is the request-path half of the
// zero-garbage contract (the monitoring plane's half lives in
// internal/detect): once the pools, session, DAO scratch and response
// buffers are warm, a fully monitored home-page request through the
// pooled borrow/release lifecycle must allocate (almost) nothing. The
// tolerance of 1 covers the runtime clearing sync.Pools across GC cycles
// mid-measurement; the steady-state path itself is allocation-free, which
// is what keeps GC pauses from masquerading as the latency and
// consumption trends the detectors hunt.
func TestRequestPathSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		monitored bool
	}{
		{"monitored", true},
		{"unmonitored", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			container := benchStack(t, tc.monitored)
			step := func() {
				req := servlet.AcquireRequest()
				req.Interaction = tpcw.CompHome
				req.SessionID = "soak"
				req.SetInt64Param("I_ID", 5)
				resp, _ := container.Invoke(req)
				if !resp.OK() {
					t.Fatalf("request failed: %v", resp.Err)
				}
				if len(resp.ItemIDs()) == 0 {
					t.Fatal("home page published no item links")
				}
				servlet.ReleaseRequest(req)
				servlet.ReleaseResponse(resp)
			}
			// Warm up: create the session, grow the DAO and response
			// scratch to their working set, populate the weaver's chain
			// caches.
			for i := 0; i < 200; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(2000, step); allocs > 1 {
				t.Fatalf("steady-state request allocates %.2f objects", allocs)
			}
		})
	}
}

// TestRequestPoolNoAliasingUnderLoad hammers the borrow/release lifecycle
// from many goroutines and checks every response against its own request:
// if recycled requests or responses ever leaked state across concurrent
// borrows (a pool double-hand-out, a response buffer shared between two
// in-flight requests), some goroutine would observe another's item id.
// Run with -race, this also pins the pools' memory-model correctness.
func TestRequestPoolNoAliasingUnderLoad(t *testing.T) {
	container := benchStack(t, true)
	const goroutines = 8
	iters := 2000
	if testing.Short() {
		iters = 200
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Distinct ids per goroutine per iteration: any
				// cross-request aliasing shows up as a mismatched echo.
				id := int64(1 + (g*31+i)%400)
				req := servlet.AcquireRequest()
				req.Interaction = tpcw.CompProductDetail
				req.SetInt64Param("I_ID", id)
				resp, _ := container.Invoke(req)
				if !resp.OK() {
					errs <- resp.Err
					return
				}
				if got := resp.Get("item").(int64); got != id {
					t.Errorf("goroutine %d: requested item %d, response echoes %d — cross-request aliasing", g, id, got)
					return
				}
				if n := len(resp.ItemIDs()); n != 2 {
					t.Errorf("goroutine %d: product page published %d related ids, want 2", g, n)
					return
				}
				servlet.ReleaseRequest(req)
				servlet.ReleaseResponse(resp)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("request failed under concurrent load: %v", err)
	}
	runtime.KeepAlive(container)
}

// TestQueryPathsSteadyStateAllocs extends the zero-garbage contract from
// point reads to the planned access paths: on a warmed connection the
// latest-by-key select, the best-sellers range through Select and through
// Each, an indexed string lookup and CatalogDAO.BestSellers itself
// allocate nothing — no predicate slice, no boxed operand, no visitor
// closure, no candidate list. Operands vary per call and are too large
// for the runtime's small-integer boxes, so a value that escaped would
// show.
func TestQueryPathsSteadyStateAllocs(t *testing.T) {
	db := sqldb.NewDB()
	app, err := tpcw.NewApp(db, aspect.NewWeaver(nil), nil, tpcw.Scale{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pool := sqldb.NewPool(db, 1)
	conn := pool.Acquire()
	defer pool.Release(conn)
	unames := make([]string, 64)
	for i := range unames {
		unames[i] = tpcw.Uname(i + 1)
	}
	var qty int64
	i := 0
	for _, tc := range []struct {
		name string
		step func() error
	}{
		{"latest order by key", func() error {
			rows, err := conn.Select(tpcw.TableOrders, sqldb.Query{}.Ordered("o_id", true).Limited(1))
			if err == nil && len(rows) != 1 {
				err = fmt.Errorf("%d rows", len(rows))
			}
			return err
		}},
		{"range Select", func() error {
			rows, err := conn.Select(tpcw.TableOrderLine, sqldb.Where("ol_o_id", sqldb.Gt, int64(300+i%500)))
			if err == nil && len(rows) == 0 {
				err = errors.New("no rows")
			}
			return err
		}},
		{"range Each", func() error {
			return conn.Each(tpcw.TableOrderLine, sqldb.Where("ol_o_id", sqldb.Gt, int64(300+i%500)), func(r sqldb.Row) bool {
				qty += r[3].(int64)
				return true
			})
		}},
		{"indexed string Eq", func() error {
			rows, err := conn.Select(tpcw.TableCustomer, sqldb.Where("c_uname", sqldb.Eq, unames[i%len(unames)]).Limited(1))
			if err == nil && len(rows) != 1 {
				err = fmt.Errorf("%d rows", len(rows))
			}
			return err
		}},
		{"CatalogDAO.BestSellers", func() error {
			items, err := app.Catalog.BestSellers(conn, tpcw.Subjects[i%len(tpcw.Subjects)])
			if err == nil && len(items) == 0 {
				err = errors.New("no best sellers")
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			step := func() {
				i++
				if err := tc.step(); err != nil {
					t.Fatal(err)
				}
			}
			for n := 0; n < 100; n++ { // grow the connection's buffers to the working set
				step()
			}
			if allocs := testing.AllocsPerRun(500, step); allocs > 0 {
				t.Fatalf("%.2f allocs per call at steady state", allocs)
			}
		})
	}
	runtime.KeepAlive(qty)
}
