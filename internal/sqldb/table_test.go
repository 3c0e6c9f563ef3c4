package sqldb

import (
	"errors"
	"slices"
	"testing"
)

func bookSchema() Schema {
	return Schema{
		Name: "item",
		Columns: []Column{
			{Name: "i_id", Type: Int64},
			{Name: "i_title", Type: String},
			{Name: "i_subject", Type: String},
			{Name: "i_cost", Type: Float64},
			{Name: "i_stock", Type: Int64},
		},
		PrimaryKey: "i_id",
	}
}

func newBookTable(t *testing.T, n int) *Table {
	t.Helper()
	db := NewDB()
	tb, err := db.CreateTable(bookSchema())
	if err != nil {
		t.Fatal(err)
	}
	subjects := []string{"ARTS", "BIOGRAPHIES", "COMPUTERS"}
	for i := 0; i < n; i++ {
		_, err := tb.Insert(Row{nil, "Book " + string(rune('A'+i%26)), subjects[i%3], float64(10 + i), int64(100)})
		if err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestSchemaValidate(t *testing.T) {
	if err := bookSchema().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Schema{
		{},
		{Name: "t"},
		{Name: "t", Columns: []Column{{Name: "", Type: Int64}}, PrimaryKey: "a"},
		{Name: "t", Columns: []Column{{Name: "a", Type: Int64}, {Name: "a", Type: Int64}}, PrimaryKey: "a"},
		{Name: "t", Columns: []Column{{Name: "a", Type: Int64}}, PrimaryKey: "b"},
		{Name: "t", Columns: []Column{{Name: "a", Type: Float64}}, PrimaryKey: "a"},
	}
	for i, s := range bad {
		if err := s.Validate(); !errors.Is(err, ErrBadSchema) {
			t.Errorf("case %d: err = %v", i, err)
		}
	}
}

func TestInsertAutoIncrement(t *testing.T) {
	tb := newBookTable(t, 3)
	if tb.Len() != 3 {
		t.Fatalf("Len = %d", tb.Len())
	}
	r, ok := tb.Get(int64(2))
	if !ok || r[0].(int64) != 2 {
		t.Fatalf("Get(2) = %v, %v", r, ok)
	}
	// Explicit key beyond autoinc advances the counter.
	if _, err := tb.Insert(Row{int64(100), "X", "ARTS", 1.0, int64(1)}); err != nil {
		t.Fatal(err)
	}
	pk, err := tb.Insert(Row{nil, "Y", "ARTS", 1.0, int64(1)})
	if err != nil || pk.(int64) != 101 {
		t.Fatalf("autoinc after explicit key = %v, %v", pk, err)
	}
}

func TestInsertErrors(t *testing.T) {
	tb := newBookTable(t, 1)
	if _, err := tb.Insert(Row{nil, "short row"}); err == nil {
		t.Fatal("width mismatch accepted")
	}
	if _, err := tb.Insert(Row{nil, 42, "ARTS", 1.0, int64(1)}); !errors.Is(err, ErrBadValue) {
		t.Fatalf("type mismatch err = %v", err)
	}
	if _, err := tb.Insert(Row{int64(1), "dup", "ARTS", 1.0, int64(1)}); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate key err = %v", err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	tb := newBookTable(t, 1)
	r, _ := tb.Get(int64(1))
	r[1] = "mutated"
	r2, _ := tb.Get(int64(1))
	if r2[1].(string) == "mutated" {
		t.Fatal("Get leaked internal row")
	}
}

func TestUpdate(t *testing.T) {
	tb := newBookTable(t, 2)
	if err := tb.Update(int64(1), map[string]any{"i_stock": int64(5)}); err != nil {
		t.Fatal(err)
	}
	r, _ := tb.Get(int64(1))
	if r[4].(int64) != 5 {
		t.Fatalf("stock = %v", r[4])
	}
	if err := tb.Update(int64(99), map[string]any{"i_stock": int64(5)}); !errors.Is(err, ErrNoSuchRow) {
		t.Fatalf("missing row err = %v", err)
	}
	if err := tb.Update(int64(1), map[string]any{"ghost": int64(5)}); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("missing column err = %v", err)
	}
	if err := tb.Update(int64(1), map[string]any{"i_id": int64(9)}); err == nil {
		t.Fatal("primary key update accepted")
	}
	if err := tb.Update(int64(1), map[string]any{"i_stock": "NaN"}); !errors.Is(err, ErrBadValue) {
		t.Fatalf("bad value err = %v", err)
	}
	// Failed update must not partially apply.
	r, _ = tb.Get(int64(1))
	if r[4].(int64) != 5 {
		t.Fatal("failed update partially applied")
	}
}

func TestDelete(t *testing.T) {
	tb := newBookTable(t, 3)
	if !tb.Delete(int64(2)) {
		t.Fatal("Delete reported false")
	}
	if tb.Delete(int64(2)) {
		t.Fatal("double Delete reported true")
	}
	if _, ok := tb.Get(int64(2)); ok {
		t.Fatal("row still present")
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestSelectFullScan(t *testing.T) {
	tb := newBookTable(t, 9)
	rows, scanned, err := tb.selectRows(Where("i_subject", Eq, "ARTS"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if scanned != 9 {
		t.Fatalf("scanned = %d, want full scan of 9", scanned)
	}
}

func TestSelectIndexNarrowsScan(t *testing.T) {
	tb := newBookTable(t, 9)
	if err := tb.CreateIndex("i_subject"); err != nil {
		t.Fatal(err)
	}
	rows, scanned, err := tb.selectRows(Where("i_subject", Eq, "ARTS"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || scanned != 3 {
		t.Fatalf("rows=%d scanned=%d, want 3/3", len(rows), scanned)
	}
	// Index stays correct across update and delete.
	if err := tb.Update(int64(1), map[string]any{"i_subject": "COMPUTERS"}); err != nil {
		t.Fatal(err)
	}
	tb.Delete(int64(4))
	rows, _, _ = tb.selectRows(Where("i_subject", Eq, "ARTS"), nil)
	if len(rows) != 1 {
		t.Fatalf("after update+delete: rows = %d, want 1", len(rows))
	}
	// Duplicate CreateIndex is a no-op.
	if err := tb.CreateIndex("i_subject"); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreateIndex("ghost"); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("index on ghost column err = %v", err)
	}
}

func TestSelectPrimaryKeyShortcut(t *testing.T) {
	tb := newBookTable(t, 100)
	rows, scanned, err := tb.selectRows(Where("i_id", Eq, int64(50)), nil)
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows = %v, err = %v", rows, err)
	}
	if scanned != 1 {
		t.Fatalf("scanned = %d, want 1 via pk", scanned)
	}
	rows, scanned, _ = tb.selectRows(Where("i_id", Eq, int64(9999)), nil)
	if len(rows) != 0 || scanned != 0 {
		t.Fatalf("missing pk: rows=%d scanned=%d", len(rows), scanned)
	}
}

func TestSelectOrderAndLimit(t *testing.T) {
	tb := newBookTable(t, 10)
	rows, _, err := tb.selectRows(Query{}.Ordered("i_cost", true).Limited(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("limit ignored: %d", len(rows))
	}
	if rows[0][3].(float64) != 19 || rows[2][3].(float64) != 17 {
		t.Fatalf("desc order wrong: %v, %v", rows[0][3], rows[2][3])
	}
	asc, _, _ := tb.selectRows(Query{}.Ordered("i_cost", false).Limited(1), nil)
	if asc[0][3].(float64) != 10 {
		t.Fatalf("asc order wrong: %v", asc[0][3])
	}
	if _, _, err := tb.selectRows(Query{}.Ordered("ghost", false), nil); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("order by ghost err = %v", err)
	}
}

func TestSelectOperators(t *testing.T) {
	tb := newBookTable(t, 10)
	cases := []struct {
		q    Query
		want int
	}{
		{Where("i_cost", Gt, 15.0), 4},
		{Where("i_cost", Ge, 15.0), 5},
		{Where("i_cost", Lt, 12.0), 2},
		{Where("i_cost", Le, 12.0), 3},
		{Where("i_cost", Ne, 10.0), 9},
		{Where("i_title", Contains, "Book"), 10},
		{Where("i_title", Contains, "zzz"), 0},
		{Where("i_subject", Eq, "ARTS").And("i_cost", Gt, 12.0), 3},
	}
	for i, tc := range cases {
		rows, _, err := tb.selectRows(tc.q, nil)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(rows) != tc.want {
			t.Fatalf("case %d: rows = %d, want %d", i, len(rows), tc.want)
		}
	}
}

func TestSelectErrors(t *testing.T) {
	tb := newBookTable(t, 2)
	if _, _, err := tb.selectRows(Where("ghost", Eq, int64(1)), nil); err == nil {
		t.Fatal("unknown predicate column accepted")
	}
	if _, _, err := tb.selectRows(Where("i_cost", Contains, "x"), nil); err == nil {
		t.Fatal("Contains on float accepted")
	}
	if _, _, err := tb.selectRows(Where("i_cost", Eq, "notafloat"), nil); !errors.Is(err, ErrBadValue) {
		t.Fatal("type-mismatched predicate accepted")
	}
}

func TestCompareAllTypes(t *testing.T) {
	cases := []struct {
		t    ColType
		a, b any
		want int
	}{
		{Int64, int64(1), int64(2), -1},
		{Int64, int64(2), int64(2), 0},
		{Float64, 3.0, 2.0, 1},
		{String, "a", "b", -1},
		{Bool, false, true, -1},
		{Bool, true, true, 0},
		{Bool, true, false, 1},
		{Bytes, []byte{1}, []byte{2}, -1},
	}
	for i, tc := range cases {
		if got := cmpValues(tc.t, tc.a, tc.b); got != tc.want {
			t.Fatalf("case %d: cmpValues = %d", i, got)
		}
	}
}

func TestOpString(t *testing.T) {
	ops := map[Op]string{Eq: "=", Ne: "!=", Lt: "<", Le: "<=", Gt: ">", Ge: ">=", Contains: "CONTAINS", Op(99): "?"}
	for op, want := range ops {
		if op.String() != want {
			t.Fatalf("Op(%d).String() = %q", op, op.String())
		}
	}
}

func TestColTypeString(t *testing.T) {
	types := map[ColType]string{Int64: "int64", Float64: "float64", String: "string", Bool: "bool", Bytes: "bytes", ColType(99): "unknown"}
	for ct, want := range types {
		if ct.String() != want {
			t.Fatalf("ColType(%d).String() = %q", ct, ct.String())
		}
	}
}

func TestSchemaGet(t *testing.T) {
	s := bookSchema()
	r := Row{int64(1), "T", "ARTS", 1.0, int64(2)}
	v, err := s.Get(r, "i_title")
	if err != nil || v.(string) != "T" {
		t.Fatalf("Get = %v, %v", v, err)
	}
	if _, err := s.Get(r, "ghost"); err == nil {
		t.Fatal("Get ghost column succeeded")
	}
}

// ids returns the primary keys of rows, for order-sensitive comparisons.
func ids(rows []Row) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[0].(int64)
	}
	return out
}

func TestOrderByKeyWalksInsertionOrder(t *testing.T) {
	tb := newBookTable(t, 100)
	cases := []struct {
		q       Query
		want    []int64
		scanned int64
	}{
		// Latest by key: one row examined, however large the table.
		{Query{}.Ordered("i_id", true).Limited(1), []int64{100}, 1},
		{Query{}.Ordered("i_id", false).Limited(3), []int64{1, 2, 3}, 3},
		// A predicate is evaluated along the walk, which still stops at the
		// LIMIT-th match: ARTS rows are ids 1, 4, 7, ..., 100.
		{Where("i_subject", Eq, "ARTS").Ordered("i_id", true).Limited(2), []int64{100, 97}, 4},
		// An unordered LIMIT stops the scan too.
		{Where("i_cost", Ge, 50.0).Limited(2), []int64{41, 42}, 42},
	}
	for i, tc := range cases {
		rows, scanned, err := tb.selectRows(tc.q, nil)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := ids(rows); !slices.Equal(got, tc.want) || scanned != tc.scanned {
			t.Fatalf("case %d: ids %v scanned %d, want %v scanned %d", i, got, scanned, tc.want, tc.scanned)
		}
	}
}

func TestOutOfOrderKeysFallBackToSort(t *testing.T) {
	db := NewDB()
	tb, err := db.CreateTable(bookSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int64{5, 3, 9, 7} {
		if _, err := tb.Insert(Row{id, "B", "ARTS", 1.0, int64(1)}); err != nil {
			t.Fatal(err)
		}
	}
	// Insertion order is not key order, so the walk cannot stop early:
	// every row is examined, then sorted, then cut.
	rows, scanned, err := tb.selectRows(Query{}.Ordered("i_id", true).Limited(1), nil)
	if err != nil || !slices.Equal(ids(rows), []int64{9}) || scanned != 4 {
		t.Fatalf("latest = %v scanned %d err %v, want [9] scanned 4", ids(rows), scanned, err)
	}
	rows, _, _ = tb.selectRows(Query{}.Ordered("i_id", false), nil)
	if !slices.Equal(ids(rows), []int64{3, 5, 7, 9}) {
		t.Fatalf("ascending = %v", ids(rows))
	}
	// Without ORDER BY rows still come back in insertion order.
	rows, _, _ = tb.selectRows(Query{}, nil)
	if !slices.Equal(ids(rows), []int64{5, 3, 9, 7}) {
		t.Fatalf("storage order = %v", ids(rows))
	}
}

func TestRangeScansOnlyTheIndexWindow(t *testing.T) {
	db := NewDB()
	tb, err := db.CreateTable(bookSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.CreateIndex("i_stock"); err != nil {
		t.Fatal(err)
	}
	// i_stock plays ol_o_id: it grows with the table, three rows a value.
	for i := 0; i < 300; i++ {
		if _, err := tb.Insert(Row{nil, "B", "ARTS", float64(i), int64(i / 3)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		op      Op
		matches int64
	}{{Gt, 30}, {Ge, 33}, {Lt, 267}, {Le, 270}, {Eq, 3}} {
		rows, scanned, err := tb.selectRows(Where("i_stock", tc.op, int64(89)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(rows)) != tc.matches || scanned != tc.matches {
			t.Fatalf("i_stock %s 89: %d rows, %d scanned, want %d and no more", tc.op, len(rows), scanned, tc.matches)
		}
		if !slices.IsSorted(ids(rows)) {
			t.Fatalf("i_stock %s 89: rows not in insertion order: %v", tc.op, ids(rows))
		}
	}
}

func TestBindRejectsBadPredicatesOnEmptyTable(t *testing.T) {
	db := NewDB()
	tb, err := db.CreateTable(bookSchema())
	if err != nil {
		t.Fatal(err)
	}
	// Predicates are checked when the query is planned, so a malformed one
	// fails even when there is no row to evaluate it on.
	if _, _, err := tb.selectRows(Where("ghost", Eq, int64(1)), nil); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("unknown column err = %v", err)
	}
	if _, _, err := tb.selectRows(Where("i_stock", Gt, 3), nil); !errors.Is(err, ErrBadValue) {
		t.Fatalf("int for int64 err = %v", err)
	}
	if _, _, err := tb.selectRows(Where("i_stock", Op(42), int64(3)), nil); err == nil {
		t.Fatal("unknown operator accepted")
	}
}
