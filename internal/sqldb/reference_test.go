package sqldb

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// refCompare orders two values of the same dynamic type. It shares no code
// with the engine's comparison.
func refCompare(a, b any) int {
	switch x := a.(type) {
	case int64:
		return cmp.Compare(x, b.(int64))
	case float64:
		return cmp.Compare(x, b.(float64))
	case string:
		return strings.Compare(x, b.(string))
	case bool:
		y := b.(bool)
		switch {
		case x == y:
			return 0
		case !x:
			return -1
		}
		return 1
	case []byte:
		return bytes.Compare(x, b.([]byte))
	}
	panic(fmt.Sprintf("refCompare: %T", a))
}

func refMatches(s Schema, r Row, p Pred) bool {
	have := r[s.colIndex(p.Col)]
	if p.Op == Contains {
		return strings.Contains(have.(string), p.Val.(string))
	}
	c := refCompare(have, p.Val)
	switch p.Op {
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	case Ge:
		return c >= 0
	}
	panic("refMatches: operator")
}

func refMatchesAll(s Schema, r Row, q Query) bool {
	for _, p := range q.Where {
		if !refMatches(s, r, p) {
			return false
		}
	}
	return true
}

// refSelect is a naive reference implementation of query evaluation used
// to cross-check the engine: filter all rows (given in insertion order),
// sort stably, limit.
func refSelect(rows []Row, s Schema, q Query) []Row {
	var out []Row
	for _, r := range rows {
		if refMatchesAll(s, r, q) {
			out = append(out, slices.Clone(r))
		}
	}
	if q.OrderBy != "" {
		ci := s.colIndex(q.OrderBy)
		slices.SortStableFunc(out, func(a, b Row) int {
			if q.Desc {
				a, b = b, a
			}
			return refCompare(a[ci], b[ci])
		})
	}
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

// refScanned is the number of rows the documented plan examines: the rows
// satisfying the access predicate (an Eq on the key, else the first
// predicate an index can serve, else all), walked in insertion order —
// from the end for ORDER BY key DESC on a key-ordered table — up to the
// LIMIT-th match unless a sort must see every match.
func refScanned(rows []Row, s Schema, indexed []string, keyOrdered bool, q Query) int64 {
	access := -1
	for i, p := range q.Where {
		if p.Op == Eq && p.Col == s.PrimaryKey {
			access = i
			break
		}
	}
	for i, p := range q.Where {
		if access < 0 && p.Op != Ne && p.Op != Contains && slices.Contains(indexed, p.Col) {
			access = i
		}
	}
	var candidates []Row
	for _, r := range rows {
		if access < 0 || refMatches(s, r, q.Where[access]) {
			candidates = append(candidates, r)
		}
	}
	inOrder := q.OrderBy == "" || q.OrderBy == s.PrimaryKey && keyOrdered
	if !inOrder || q.Limit == 0 {
		return int64(len(candidates))
	}
	if q.OrderBy != "" && q.Desc {
		slices.Reverse(candidates)
	}
	matched := 0
	for i, r := range candidates {
		if refMatchesAll(s, r, q) {
			if matched++; matched == q.Limit {
				return int64(i + 1)
			}
		}
	}
	return int64(len(candidates))
}

func rowsEqual(a, b []Row) bool {
	return slices.EqualFunc(a, b, func(x, y Row) bool {
		return slices.EqualFunc(x, y, func(u, v any) bool { return refCompare(u, v) == 0 })
	})
}

// TestSelectMatchesReference cross-checks the engine (with its index
// shortcuts) against the naive reference over randomized tables and
// queries.
func TestSelectMatchesReference(t *testing.T) {
	type spec struct {
		Stocks   []uint8 // row data
		Subject  uint8   // subject selector
		UseIndex bool
		Gt       bool
		Desc     bool
		Limit    uint8
	}
	subjects := []string{"ARTS", "BIO", "CS"}
	f := func(sp spec) bool {
		db := NewDB()
		tb, err := db.CreateTable(bookSchema())
		if err != nil {
			return false
		}
		var raw []Row
		for i, st := range sp.Stocks {
			row := Row{nil, "Book", subjects[i%3], float64(i), int64(st)}
			pk, err := tb.Insert(row)
			if err != nil {
				return false
			}
			stored, _ := tb.Get(pk)
			raw = append(raw, stored)
		}
		if sp.UseIndex {
			if err := tb.CreateIndex("i_subject"); err != nil {
				return false
			}
		}
		q := Where("i_subject", Eq, subjects[int(sp.Subject)%3])
		if sp.Gt {
			q = q.And("i_stock", Gt, int64(100))
		}
		q = q.Ordered("i_cost", sp.Desc).Limited(int(sp.Limit % 8))

		got, _, err := tb.selectRows(q, nil)
		if err != nil {
			return false
		}
		return rowsEqual(got, refSelect(raw, tb.Schema(), q))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// oracleQueries is the battery run after every random write sequence:
// every operator on the key, on both indexed columns and on an unindexed
// one, alone and combined, unordered and ordered by key or by another
// column, with and without LIMIT.
func oracleQueries(rng *rand.Rand) []Query {
	subjects := []string{"ARTS", "BIO", "CS", "NONE"}
	var qs []Query
	for _, op := range []Op{Eq, Ne, Lt, Le, Gt, Ge} {
		qs = append(qs,
			Where("i_id", op, int64(rng.IntN(40))),
			Where("i_subject", op, subjects[rng.IntN(len(subjects))]),
			Where("i_stock", op, int64(rng.IntN(8))),
			Where("i_cost", op, float64(rng.IntN(8))),
			Where("i_stock", op, int64(rng.IntN(8))).And("i_subject", Eq, subjects[rng.IntN(3)]),
			Where("i_cost", op, float64(rng.IntN(8))).And("i_stock", Ge, int64(rng.IntN(8))),
		)
	}
	qs = append(qs, Query{}, Where("i_title", Contains, "1"), Where("i_title", Contains, "B").And("i_subject", Eq, "CS"))
	var out []Query
	for _, q := range qs {
		lim := 1 + rng.IntN(4)
		out = append(out, q, q.Limited(lim),
			q.Ordered("i_id", false), q.Ordered("i_id", true),
			q.Ordered("i_id", false).Limited(lim), q.Ordered("i_id", true).Limited(lim),
			q.Ordered("i_stock", rng.IntN(2) == 0).Limited(rng.IntN(3)))
	}
	return out
}

func describe(q Query) string {
	var b strings.Builder
	for _, p := range q.Where {
		fmt.Fprintf(&b, "%s %s %v AND ", p.Col, p.Op, p.Val)
	}
	fmt.Fprintf(&b, "ORDER BY %q desc=%v LIMIT %d", q.OrderBy, q.Desc, q.Limit)
	return b.String()
}

// TestQueriesMatchReferenceAfterRandomWrites drives one table and a plain
// row-list model through random interleavings of auto-increment inserts,
// inserts with explicit (often out-of-order) keys, updates of both indexed
// columns through UpdateCol and Update, and deletes; then every query of
// the battery must return the model's rows in the model's order, through
// Select and through Each, having examined exactly the rows the plan
// promises.
func TestQueriesMatchReferenceAfterRandomWrites(t *testing.T) {
	subjects := []string{"ARTS", "BIO", "CS"}
	indexed := []string{"i_subject", "i_stock"}
	sawSorted, sawUnsorted := false, false
	for seed := uint64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewPCG(seed, 14))
		db := NewDB()
		tb, err := db.CreateTable(bookSchema())
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range indexed {
			if err := tb.CreateIndex(col); err != nil {
				t.Fatal(err)
			}
		}
		s := tb.Schema()
		var model []Row
		find := func(pk int64) int {
			return slices.IndexFunc(model, func(r Row) bool { return r[0].(int64) == pk })
		}
		// A third of the tables only ever see ascending keys, the shape of
		// every TPC-W table; the rest also get explicit keys anywhere.
		explicitKeys := seed%3 != 0
		for n := rng.IntN(60); n > 0; n-- {
			pk := int64(1 + rng.IntN(40))
			at := find(pk)
			switch kind := rng.IntN(6); {
			case kind <= 1 || kind == 2 && !explicitKeys:
				row := Row{nil, fmt.Sprintf("Book %d", rng.IntN(30)), subjects[rng.IntN(3)], float64(rng.IntN(8)), int64(rng.IntN(8))}
				key, err := tb.Insert(row)
				if err != nil {
					t.Fatalf("seed %d: insert: %v", seed, err)
				}
				row[0] = key
				model = append(model, row)
			case kind == 2:
				row := Row{pk, "Book x", subjects[rng.IntN(3)], float64(rng.IntN(8)), int64(rng.IntN(8))}
				_, err := tb.Insert(row)
				if (err == nil) != (at < 0) {
					t.Fatalf("seed %d: insert of key %d: err %v, model has it: %v", seed, pk, err, at >= 0)
				}
				if err == nil {
					model = append(model, row)
				}
			case kind == 3:
				v := int64(rng.IntN(8))
				err := tb.UpdateCol(pk, "i_stock", v)
				if (err == nil) != (at >= 0) {
					t.Fatalf("seed %d: UpdateCol of key %d: err %v, model has it: %v", seed, pk, err, at >= 0)
				}
				if err == nil {
					model[at][4] = v
				}
			case kind == 4:
				subj, v := subjects[rng.IntN(3)], int64(rng.IntN(8))
				err := tb.Update(pk, map[string]any{"i_subject": subj, "i_stock": v})
				if (err == nil) != (at >= 0) {
					t.Fatalf("seed %d: Update of key %d: err %v, model has it: %v", seed, pk, err, at >= 0)
				}
				if err == nil {
					model[at][2], model[at][4] = subj, v
				}
			default:
				if tb.Delete(pk) != (at >= 0) {
					t.Fatalf("seed %d: Delete of key %d disagrees with the model", seed, pk)
				}
				if at >= 0 {
					model = slices.Delete(model, at, at+1)
				}
			}
		}
		checkIndexes(t, tb)
		modelSorted := slices.IsSortedFunc(model, func(a, b Row) int { return refCompare(a[0], b[0]) })
		if tb.keyOrdered && !modelSorted {
			t.Fatalf("seed %d: table claims key order, rows are not in it", seed)
		}
		if !explicitKeys && len(model) > 0 && !tb.keyOrdered {
			t.Fatalf("seed %d: auto-increment inserts only, yet the table lost key order", seed)
		}
		sawSorted = sawSorted || tb.keyOrdered
		sawUnsorted = sawUnsorted || !tb.keyOrdered

		for _, q := range oracleQueries(rng) {
			want := refSelect(model, s, q)
			wantScanned := refScanned(model, s, indexed, tb.keyOrdered, q)
			got, scanned, err := tb.selectRows(q, nil)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, describe(q), err)
			}
			if !rowsEqual(got, want) {
				t.Fatalf("seed %d: %s (key-ordered %v)\n got %v\nwant %v", seed, describe(q), tb.keyOrdered, got, want)
			}
			if scanned != wantScanned {
				t.Fatalf("seed %d: %s (key-ordered %v): scanned %d of %d rows, plan says %d",
					seed, describe(q), tb.keyOrdered, scanned, len(model), wantScanned)
			}
			var visited []Row
			eachScanned, n, err := tb.each(q, &queryScratch{}, func(r Row) bool {
				visited = append(visited, slices.Clone(r))
				return true
			})
			if err != nil || !rowsEqual(visited, want) || eachScanned != wantScanned || n != int64(len(want)) {
				t.Fatalf("seed %d: %s: each visited %v (scanned %d, counted %d, err %v)\nwant %v (scanned %d)",
					seed, describe(q), visited, eachScanned, n, err, want, wantScanned)
			}
		}
	}
	if !sawSorted || !sawUnsorted {
		t.Fatalf("oracle covered key-ordered tables: %v, tables that fall back to sorting: %v; want both", sawSorted, sawUnsorted)
	}
}

// checkIndexes verifies every index of tb: exactly one entry per row,
// sorted by the rows' current value and among equal values by slot
// (insertion order); and the key map agrees with the rows.
func checkIndexes(t *testing.T, tb *Table) {
	t.Helper()
	if len(tb.byKey) != len(tb.rows) {
		t.Fatalf("key map has %d keys for %d rows", len(tb.byKey), len(tb.rows))
	}
	for slot, r := range tb.rows {
		if got, ok := tb.byKey[r[tb.pkIdx]]; !ok || got != slot {
			t.Fatalf("key %v maps to slot %d (present %v), row is at %d", r[tb.pkIdx], got, ok, slot)
		}
	}
	for _, x := range tb.indexes {
		col := tb.schema.Columns[x.ci].Name
		if len(x.slots) != len(tb.rows) {
			t.Fatalf("index %s: %d entries for %d rows", col, len(x.slots), len(tb.rows))
		}
		seen := make([]bool, len(tb.rows))
		for i, s := range x.slots {
			if s < 0 || int(s) >= len(seen) || seen[s] {
				t.Fatalf("index %s: entry %d names slot %d (out of range or twice)", col, i, s)
			}
			seen[s] = true
			if i == 0 {
				continue
			}
			prev := x.slots[i-1]
			if c := refCompare(tb.rows[prev][x.ci], tb.rows[s][x.ci]); c > 0 || c == 0 && prev > s {
				t.Fatalf("index %s: entries %d and %d out of order: (%v, %d) before (%v, %d)",
					col, i-1, i, tb.rows[prev][x.ci], prev, tb.rows[s][x.ci], s)
			}
		}
		if x.inOrder && !slices.IsSorted(x.slots) {
			t.Fatalf("index %s: flagged in insertion order, but is not: %v", col, x.slots)
		}
	}
}

// TestIndexInvariant checks that index maintenance keeps query results
// identical across a random sequence of inserts, updates and deletes, and
// that the ordered index itself stays well-formed after every step.
func TestIndexInvariant(t *testing.T) {
	type op struct {
		Kind    uint8
		Key     uint8
		Subject uint8
	}
	subjects := []string{"ARTS", "BIO", "CS"}
	f := func(ops []op) bool {
		indexed := NewDB()
		plain := NewDB()
		ti, _ := indexed.CreateTable(bookSchema())
		tp, _ := plain.CreateTable(bookSchema())
		if err := ti.CreateIndex("i_subject"); err != nil {
			return false
		}
		for _, o := range ops {
			switch o.Kind % 3 {
			case 0: // insert
				row := Row{nil, "B", subjects[int(o.Subject)%3], 1.0, int64(o.Key)}
				if _, err := ti.Insert(row); err != nil {
					return false
				}
				if _, err := tp.Insert(row); err != nil {
					return false
				}
			case 1: // update
				pk := int64(o.Key%16) + 1
				set := map[string]any{"i_subject": subjects[int(o.Subject)%3]}
				e1 := ti.Update(pk, set)
				e2 := tp.Update(pk, set)
				if (e1 == nil) != (e2 == nil) {
					return false
				}
			case 2: // delete
				pk := int64(o.Key%16) + 1
				if ti.Delete(pk) != tp.Delete(pk) {
					return false
				}
			}
			checkIndexes(t, ti)
		}
		for _, subj := range subjects {
			a, _, err := ti.selectRows(Where("i_subject", Eq, subj), nil)
			if err != nil {
				return false
			}
			b, _, err := tp.selectRows(Where("i_subject", Eq, subj), nil)
			if err != nil {
				return false
			}
			if !rowsEqual(a, b) {
				return false
			}
		}
		// An index built over existing rows must equal the one maintained
		// row by row.
		if err := tp.CreateIndex("i_subject"); err != nil {
			return false
		}
		checkIndexes(t, tp)
		return slices.Equal(ti.indexes[0].slots, tp.indexes[0].slots)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
