package sqldb

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func newPoolDB(t *testing.T) (*DB, *Pool) {
	t.Helper()
	db := NewDB()
	if _, err := db.CreateTable(bookSchema()); err != nil {
		t.Fatal(err)
	}
	return db, NewPool(db, 2)
}

func TestDBCreateAndLookup(t *testing.T) {
	db := NewDB()
	if _, err := db.CreateTable(bookSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(bookSchema()); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, err := db.Table("item"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Table("ghost"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("ghost table err = %v", err)
	}
	if names := db.TableNames(); len(names) != 1 || names[0] != "item" {
		t.Fatalf("TableNames = %v", names)
	}
	if _, err := db.CreateTable(Schema{}); err == nil {
		t.Fatal("invalid schema accepted")
	}
}

func TestConnCostAccounting(t *testing.T) {
	db, pool := newPoolDB(t)
	c := pool.Acquire()
	defer pool.Release(c)
	for i := 0; i < 5; i++ {
		if _, err := c.Insert("item", Row{nil, "B", "ARTS", 1.0, int64(9)}); err != nil {
			t.Fatal(err)
		}
	}
	c.ResetCost()
	rows, err := c.Select("item", Where("i_subject", Eq, "ARTS"))
	if err != nil || len(rows) != 5 {
		t.Fatalf("select = %d rows, %v", len(rows), err)
	}
	cost := c.Cost()
	if cost.Queries != 1 || cost.RowsScanned != 5 || cost.RowsReturned != 5 {
		t.Fatalf("cost = %+v", cost)
	}
	if _, ok, err := c.Get("item", int64(1)); err != nil || !ok {
		t.Fatal("Get failed")
	}
	if err := c.Update("item", int64(1), map[string]any{"i_stock": int64(8)}); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.Delete("item", int64(5)); err != nil || !ok {
		t.Fatal("Delete failed")
	}
	cost = c.Cost()
	if cost.Queries != 4 {
		t.Fatalf("queries = %d, want 4", cost.Queries)
	}
	st := db.Stats()
	if st.Queries < 4 {
		t.Fatalf("engine queries = %d", st.Queries)
	}
}

func TestConnErrorsOnGhostTable(t *testing.T) {
	_, pool := newPoolDB(t)
	c := pool.Acquire()
	defer pool.Release(c)
	if _, err := c.Select("ghost", Query{}); err == nil {
		t.Fatal("select ghost table succeeded")
	}
	if _, _, err := c.Get("ghost", int64(1)); err == nil {
		t.Fatal("get ghost table succeeded")
	}
	if _, err := c.Insert("ghost", Row{}); err == nil {
		t.Fatal("insert ghost table succeeded")
	}
	if err := c.Update("ghost", int64(1), nil); err == nil {
		t.Fatal("update ghost table succeeded")
	}
	if _, err := c.Delete("ghost", int64(1)); err == nil {
		t.Fatal("delete ghost table succeeded")
	}
}

func TestPoolAcquireRelease(t *testing.T) {
	_, pool := newPoolDB(t)
	if pool.Size() != 2 || pool.Idle() != 2 {
		t.Fatalf("size=%d idle=%d", pool.Size(), pool.Idle())
	}
	c1 := pool.Acquire()
	c2, ok := pool.TryAcquire()
	if !ok {
		t.Fatal("TryAcquire failed with idle connection")
	}
	if _, ok := pool.TryAcquire(); ok {
		t.Fatal("TryAcquire succeeded on empty pool")
	}
	pool.Release(c1)
	pool.Release(c2)
	if pool.Idle() != 2 {
		t.Fatalf("idle = %d after releases", pool.Idle())
	}
}

func TestPoolReleaseResetsCost(t *testing.T) {
	_, pool := newPoolDB(t)
	c := pool.Acquire()
	if _, err := c.Insert("item", Row{nil, "B", "ARTS", 1.0, int64(9)}); err != nil {
		t.Fatal(err)
	}
	pool.Release(c)
	c2 := pool.Acquire()
	defer pool.Release(c2)
	if c2.Cost() != (QueryCost{}) {
		t.Fatalf("cost not reset: %+v", c2.Cost())
	}
}

func TestPoolForeignReleasePanics(t *testing.T) {
	_, p1 := newPoolDB(t)
	_, p2 := newPoolDB(t)
	c := p1.Acquire()
	defer func() {
		if recover() == nil {
			t.Fatal("foreign release did not panic")
		}
	}()
	p2.Release(c)
}

func TestPoolBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size pool did not panic")
		}
	}()
	NewPool(NewDB(), 0)
}

func TestQueryCostAdd(t *testing.T) {
	a := QueryCost{Queries: 1, RowsScanned: 2, RowsReturned: 3}
	a.Add(QueryCost{Queries: 10, RowsScanned: 20, RowsReturned: 30})
	if a.Queries != 11 || a.RowsScanned != 22 || a.RowsReturned != 33 {
		t.Fatalf("Add = %+v", a)
	}
}

func TestPoolConcurrentBorrowers(t *testing.T) {
	db := NewDB()
	if _, err := db.CreateTable(bookSchema()); err != nil {
		t.Fatal(err)
	}
	pool := NewPool(db, 4)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				c := pool.Acquire()
				_, _ = c.Insert("item", Row{nil, "B", "ARTS", 1.0, int64(1)})
				_, _ = c.Select("item", Where("i_subject", Eq, "ARTS").Limited(1))
				pool.Release(c)
			}
		}()
	}
	wg.Wait()
	tb, _ := db.Table("item")
	if tb.Len() != 16*50 {
		t.Fatalf("rows = %d, want %d", tb.Len(), 16*50)
	}
	if pool.Idle() != 4 {
		t.Fatalf("idle = %d", pool.Idle())
	}
}

func TestInsertSelectRoundTrip(t *testing.T) {
	// Property: every inserted row is retrievable by its returned key
	// and equal to what was inserted.
	f := func(title string, cost float64, stock uint16) bool {
		if cost != cost || cost > 1e300 || cost < -1e300 { // NaN/huge guard
			return true
		}
		db := NewDB()
		tb, err := db.CreateTable(bookSchema())
		if err != nil {
			return false
		}
		pk, err := tb.Insert(Row{nil, title, "ARTS", cost, int64(stock)})
		if err != nil {
			return false
		}
		r, ok := tb.Get(pk)
		return ok && r[1].(string) == title && r[3].(float64) == cost && r[4].(int64) == int64(stock)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEachVisitsWhatSelectReturns(t *testing.T) {
	db, pool := newPoolDB(t)
	tb, _ := db.Table("item")
	if err := tb.CreateIndex("i_stock"); err != nil {
		t.Fatal(err)
	}
	c := pool.Acquire()
	defer pool.Release(c)
	for i := 0; i < 30; i++ {
		if _, err := c.Insert("item", Row{nil, "B", "ARTS", float64(i % 7), int64(i / 3)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []Query{
		Where("i_stock", Gt, int64(5)),                         // index window, streamed
		Where("i_cost", Lt, 3.0).Limited(4),                    // full scan, stops at the limit
		Query{}.Ordered("i_id", true).Limited(2),               // key order from the end
		Where("i_stock", Le, int64(6)).Ordered("i_cost", true), // needs a sort: served from copies
	} {
		c.ResetCost()
		want, err := c.Select("item", q)
		if err != nil {
			t.Fatal(err)
		}
		wantIDs := ids(want)
		selectCost := c.Cost()
		c.ResetCost()
		var got []int64
		if err := c.Each("item", q, func(r Row) bool {
			got = append(got, r[0].(int64))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, wantIDs) {
			t.Fatalf("%s: Each visited %v, Select returned %v", describe(q), got, wantIDs)
		}
		if c.Cost() != selectCost {
			t.Fatalf("%s: Each cost %+v, Select cost %+v", describe(q), c.Cost(), selectCost)
		}
	}
	c.ResetCost()

	// Stopping early charges only what was examined and seen.
	seen := 0
	if err := c.Each("item", Query{}, func(Row) bool { seen++; return seen < 5 }); err != nil {
		t.Fatal(err)
	}
	if cost := c.Cost(); seen != 5 || cost.RowsScanned != 5 || cost.RowsReturned != 5 || cost.Queries != 1 {
		t.Fatalf("early stop: saw %d, cost %+v", seen, cost)
	}
	if err := c.Each("ghost", Query{}, func(Row) bool { return true }); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("ghost table err = %v", err)
	}
	if err := c.Each("item", Where("ghost", Eq, int64(1)), func(Row) bool { return true }); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("ghost column err = %v", err)
	}
}

// TestRangeReadsDuringInterleavedOrderInserts is the buy_confirm race:
// writers each create an order and then its lines, so lines of different
// orders interleave in order_line and the ol_o_id index takes
// out-of-order inserts, while readers run the best-sellers range query
// through Select and Each. Every read must see only lines above its
// bound, in insertion order, and never more than an order's three lines.
// Run with -race.
func TestRangeReadsDuringInterleavedOrderInserts(t *testing.T) {
	db := NewDB()
	orders, err := db.CreateTable(Schema{Name: "orders", PrimaryKey: "o_id", Columns: []Column{
		{Name: "o_id", Type: Int64}, {Name: "o_c_id", Type: Int64}}})
	if err != nil {
		t.Fatal(err)
	}
	lines, err := db.CreateTable(Schema{Name: "order_line", PrimaryKey: "ol_id", Columns: []Column{
		{Name: "ol_id", Type: Int64}, {Name: "ol_o_id", Type: Int64}, {Name: "ol_qty", Type: Int64}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := lines.CreateIndex("ol_o_id"); err != nil {
		t.Fatal(err)
	}
	const writers, readers, ordersEach, linesEach, window = 4, 3, 100, 3, 30
	pool := NewPool(db, writers+readers)

	var writing, reading sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			c := pool.Acquire()
			defer pool.Release(c)
			for i := 0; i < ordersEach; i++ {
				oid, err := c.Insert("orders", Row{nil, int64(1)})
				if err != nil {
					t.Error(err)
					return
				}
				for l := 0; l < linesEach; l++ {
					if _, err := c.Insert("order_line", Row{nil, oid, int64(1)}); err != nil {
						t.Error(err)
						return
					}
					runtime.Gosched() // let another order's lines in between
				}
			}
		}()
	}
	check := func(how string, bound int64, lineIDs, orderIDs []int64) {
		if !slices.IsSorted(lineIDs) {
			t.Errorf("%s: lines not in insertion order", how)
		}
		perOrder := map[int64]int{}
		for _, oid := range orderIDs {
			if oid <= bound {
				t.Errorf("%s: line of order %d returned for ol_o_id > %d", how, oid, bound)
			}
			if perOrder[oid]++; perOrder[oid] > linesEach {
				t.Errorf("%s: order %d has more than %d lines", how, oid, linesEach)
			}
		}
	}
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			c := pool.Acquire()
			defer pool.Release(c)
			var lineIDs, orderIDs []int64
			for {
				select {
				case <-done:
					return
				default:
					runtime.Gosched() // on one P a spinning reader would hold each writer off for a time slice
				}
				latest, err := c.Select("orders", Query{}.Ordered("o_id", true).Limited(1))
				if err != nil || len(latest) == 0 {
					continue
				}
				bound := latest[0][0].(int64) - window
				q := Where("ol_o_id", Gt, bound)
				rows, err := c.Select("order_line", q)
				if err != nil {
					t.Error(err)
					return
				}
				lineIDs, orderIDs = lineIDs[:0], orderIDs[:0]
				for _, row := range rows {
					lineIDs, orderIDs = append(lineIDs, row[0].(int64)), append(orderIDs, row[1].(int64))
				}
				check("Select", bound, lineIDs, orderIDs)
				lineIDs, orderIDs = lineIDs[:0], orderIDs[:0]
				if err := c.Each("order_line", q, func(row Row) bool {
					lineIDs, orderIDs = append(lineIDs, row[0].(int64)), append(orderIDs, row[1].(int64))
					return true
				}); err != nil {
					t.Error(err)
					return
				}
				check("Each", bound, lineIDs, orderIDs)
			}
		}()
	}
	writing.Wait()
	close(done)
	reading.Wait()

	checkIndexes(t, lines)
	if orders.Len() != writers*ordersEach || lines.Len() != writers*ordersEach*linesEach {
		t.Fatalf("%d orders, %d lines", orders.Len(), lines.Len())
	}
	// The writers did interleave, or this test exercised nothing: the index
	// (by order, then insertion) must differ from insertion order.
	if slices.IsSorted(lines.indexes[0].slots) {
		t.Skip("writers never interleaved on this run; the out-of-order index path went unexercised")
	}
	// Quiescent, the window must hold exactly the last `window` orders' lines.
	c := pool.Acquire()
	defer pool.Release(c)
	rows, err := c.Select("order_line", Where("ol_o_id", Gt, int64(writers*ordersEach-window)))
	if err != nil || len(rows) != window*linesEach {
		t.Fatalf("final window: %d lines, err %v, want %d", len(rows), err, window*linesEach)
	}
	if got := c.Cost().RowsScanned; got != window*linesEach {
		t.Fatalf("final window examined %d rows, want %d", got, window*linesEach)
	}
}
