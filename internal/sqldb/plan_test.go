package sqldb

import (
	"fmt"
	"slices"
	"testing"
)

// planTable is a book table of 300 rows whose indexed i_stock grows with
// the table, three rows a value, as ol_o_id does in order_line; i_cost is
// not indexed.
func planTable(t *testing.T) (*Table, *Conn) {
	t.Helper()
	db := NewDB()
	tb, err := db.CreateTable(bookSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.CreateIndex("i_stock"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := tb.Insert(Row{nil, "B", "ARTS", float64(i % 7), int64(i / 3)}); err != nil {
			t.Fatal(err)
		}
	}
	return tb, NewPool(db, 1).Acquire()
}

// checkAgainstBruteForce runs q through Select and Each and compares the
// rows, RowsScanned and RowsReturned with a filter over every row: the
// rows scanned are those satisfying the access predicate q.Where[access].
func checkAgainstBruteForce(t *testing.T, tb *Table, c *Conn, q Query, access int) {
	t.Helper()
	want := refSelect(tb.rows, tb.schema, q)
	var scanned int64
	for _, r := range tb.rows {
		if refMatches(tb.schema, r, q.Where[access]) {
			scanned++
		}
	}
	c.ResetCost()
	rows, err := c.Select("item", q)
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(rows, want) {
		t.Errorf("%v: Select = %v, brute force %v", q.Where, ids(rows), ids(want))
	}
	var visited []int64
	if err := c.Each("item", q, func(r Row) bool {
		visited = append(visited, r[0].(int64))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(visited, ids(want)) {
		t.Errorf("%v: Each = %v, brute force %v", q.Where, visited, ids(want))
	}
	if got, n := c.Cost(), int64(len(want)); got.RowsScanned != 2*scanned || got.RowsReturned != 2*n {
		t.Errorf("%v: scanned %d, returned %d over Select and Each; brute force %d and %d each",
			q.Where, got.RowsScanned, got.RowsReturned, scanned, n)
	}
}

// TestPlanDropsThePredicateItsAccessPathProves checks that the primary-key
// probe and an index window, exact for Eq, Lt, Le, Gt and Ge, leave the
// plan's predicates, alone or beside a predicate no index serves, and that
// the results and costs still equal a brute-force filter.
func TestPlanDropsThePredicateItsAccessPathProves(t *testing.T) {
	tb, c := planTable(t)
	other := Pred{"i_cost", Ge, 3.0}
	var queries []Query
	for _, key := range []int64{40, 999} {
		queries = append(queries, Where("i_id", Eq, key), Where("i_id", Eq, key).And(other.Col, other.Op, other.Val))
	}
	for _, op := range []Op{Eq, Lt, Le, Gt, Ge} {
		access := Pred{"i_stock", op, int64(40)}
		queries = append(queries,
			Query{Where: []Pred{access}},
			Query{Where: []Pred{access, other}},
			Query{Where: []Pred{other, access}})
	}
	for _, q := range queries {
		t.Run(fmt.Sprint(q.Where), func(t *testing.T) {
			access := slices.IndexFunc(q.Where, func(p Pred) bool { return p.Col != other.Col })
			tb.mu.RLock()
			p, err := tb.planLocked(q, nil)
			tb.mu.RUnlock()
			if err != nil {
				t.Fatal(err)
			}
			if len(p.preds) != len(q.Where)-1 || len(p.preds) == 1 && p.preds[0].ci != tb.schema.colIndex(other.Col) {
				t.Fatalf("plan keeps %d predicates (%+v); want only the one on %s", len(p.preds), p.preds, other.Col)
			}
			checkAgainstBruteForce(t, tb, c, q, access)
		})
	}
}

// TestRangeWindowWalksSlotOrderAfterDisorder moves the i_stock index out
// of insertion order, by an update and by an out-of-order insert, and
// checks that the index stops claiming insertion order and that every
// window, Gt included, is still walked in slot order.
func TestRangeWindowWalksSlotOrderAfterDisorder(t *testing.T) {
	for _, tc := range []struct {
		name     string
		disorder func(c *Conn) error
	}{
		// The first row jumps past the top of every range window.
		{"update", func(c *Conn) error { return c.UpdateCol("item", int64(1), "i_stock", int64(1000)) }},
		// The newest row lands inside the Gt 90 window, before older rows.
		{"insert", func(c *Conn) error {
			_, err := c.Insert("item", Row{nil, "B", "ARTS", 1.0, int64(95)})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb, c := planTable(t)
			x := tb.indexes[0]
			if !x.inOrder {
				t.Fatal("an index built over rows inserted in value order is not flagged in insertion order")
			}
			if err := tc.disorder(c); err != nil {
				t.Fatal(err)
			}
			if x.inOrder || slices.IsSorted(x.slots) {
				t.Fatalf("after the %s: flagged %v, slots sorted %v; want neither", tc.name, x.inOrder, slices.IsSorted(x.slots))
			}
			for _, op := range []Op{Gt, Ge, Lt, Le, Eq} {
				checkAgainstBruteForce(t, tb, c, Where("i_stock", op, int64(90)), 0)
			}
			checkIndexes(t, tb)
		})
	}
}
