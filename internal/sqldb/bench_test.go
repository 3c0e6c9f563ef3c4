package sqldb

import (
	"fmt"
	"testing"
)

// benchWindow is TPC-W's best-seller window: the range benchmarks read the
// lines of the latest benchWindow orders.
const benchWindow = 3333

// benchOrderTables builds orders and order_line in the TPC-W shape —
// auto-increment keys, three lines an order, ol_o_id indexed — and returns
// a connection to them.
func benchOrderTables(b *testing.B, orders int) *Conn {
	b.Helper()
	db := NewDB()
	if _, err := db.CreateTable(Schema{Name: "orders", PrimaryKey: "o_id", Columns: []Column{
		{Name: "o_id", Type: Int64}, {Name: "o_c_id", Type: Int64}, {Name: "o_total", Type: Float64}}}); err != nil {
		b.Fatal(err)
	}
	lines, err := db.CreateTable(Schema{Name: "order_line", PrimaryKey: "ol_id", Columns: []Column{
		{Name: "ol_id", Type: Int64}, {Name: "ol_o_id", Type: Int64}, {Name: "ol_i_id", Type: Int64}, {Name: "ol_qty", Type: Int64}}})
	if err != nil {
		b.Fatal(err)
	}
	if err := lines.CreateIndex("ol_o_id"); err != nil {
		b.Fatal(err)
	}
	c := NewPool(db, 1).Acquire()
	for o := 0; o < orders; o++ {
		oid, err := c.Insert("orders", Row{nil, int64(o%1440 + 1), 9.5})
		if err != nil {
			b.Fatal(err)
		}
		for l := 0; l < 3; l++ {
			if _, err := c.Insert("order_line", Row{nil, oid, int64((o*3+l)%1000 + 1), int64(1)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	c.ResetCost()
	return c
}

// benchSizes are the table sizes every access-path benchmark runs at: the
// end state of a benchmark run and ten times that. The ratio between the
// two is the evidence that cost follows the rows asked for, not the table.
var benchSizes = []int{1500, 15000}

func reportScanned(b *testing.B, c *Conn) {
	b.ReportMetric(float64(c.Cost().RowsScanned)/float64(b.N), "rows_scanned/op")
}

// BenchmarkSelectLatestByPK is best_sellers' first query: ORDER BY o_id
// DESC LIMIT 1.
func BenchmarkSelectLatestByPK(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("orders=%d", n), func(b *testing.B) {
			c := benchOrderTables(b, n)
			q := Query{}.Ordered("o_id", true).Limited(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := c.Select("orders", q)
				if err != nil || len(rows) != 1 {
					b.Fatalf("%d rows, %v", len(rows), err)
				}
			}
			reportScanned(b, c)
		})
	}
}

// BenchmarkSelectRangeWindow is best_sellers' second query, ol_o_id >
// latest-3333, through Each with the DAO's kind of fold.
func BenchmarkSelectRangeWindow(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("orders=%d", n), func(b *testing.B) {
			c := benchOrderTables(b, n)
			q := Where("ol_o_id", Gt, int64(n-benchWindow))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var qty int64
				if err := c.Each("order_line", q, func(r Row) bool {
					qty += r[3].(int64)
					return true
				}); err != nil || qty != 3*int64(min(n, benchWindow)) {
					b.Fatalf("quantity %d, %v", qty, err)
				}
			}
			reportScanned(b, c)
		})
	}
}
