package tpcw

import (
	"fmt"
	"testing"

	"repro/internal/aspect"
	"repro/internal/sqldb"
)

// BenchmarkBestSellers runs CatalogDAO.BestSellers over the default
// catalogue with orders grown to the end state of a benchmark run and to
// ten times that. The window is 3333 orders, so the second size must cost
// about what a full window costs — not ten times the first.
func BenchmarkBestSellers(b *testing.B) {
	for _, orders := range []int{1500, 15000} {
		b.Run(fmt.Sprintf("orders=%d", orders), func(b *testing.B) {
			db := sqldb.NewDB()
			app, err := NewApp(db, aspect.NewWeaver(nil), nil, Scale{Seed: 3})
			if err != nil {
				b.Fatal(err)
			}
			conn := sqldb.NewPool(db, 1).Acquire()
			table, err := db.Table(TableOrders)
			if err != nil {
				b.Fatal(err)
			}
			var cart Cart
			for n := table.Len(); n < orders; n++ {
				cart.Lines = cart.Lines[:0]
				for l := 0; l < 3; l++ {
					cart.Add(int64((n*3+l)%app.Scale().Items+1), 1, 9.5)
				}
				if _, err := app.Orders.Create(conn, int64(n%app.Scale().Customers+1), &cart, int64(n)); err != nil {
					b.Fatal(err)
				}
			}
			conn.ResetCost()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				items, err := app.Catalog.BestSellers(conn, Subjects[i%len(Subjects)])
				if err != nil || len(items) == 0 {
					b.Fatalf("%d items, %v", len(items), err)
				}
			}
			b.ReportMetric(float64(conn.Cost().RowsScanned)/float64(b.N), "rows_scanned/op")
		})
	}
}
