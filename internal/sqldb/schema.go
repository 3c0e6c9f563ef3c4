// Package sqldb is the in-memory relational storage engine the TPC-W
// application runs against — the reproduction's stand-in for the paper's
// MySQL 5 server. It supports typed schemas, primary keys with
// auto-increment, ordered secondary indexes, predicate queries with
// ordering and limits, and per-connection cost accounting (queries issued,
// rows scanned, rows returned). The cost figures drive the simulation's
// service-time model, so query shape — index window vs. full scan —
// affects virtual latency the way it would on a real database.
//
// # Access paths
//
// A table keeps its rows in insertion order and notes whether that is also
// primary-key order, which it is for as long as every insert carried a key
// above the previous one (auto-increment keys always do). A secondary
// index is the row positions sorted by column value, then insertion order.
// One planner (Table.planLocked) serves every query from those, choosing
// by what the query asks and what the table knows about itself — there is
// no hint, option or flag:
//
//   - Candidates: an Eq on the primary key is one probe; else the first
//     predicate an index can serve (Eq, Lt, Le, Gt, Ge on an indexed
//     column) narrows them to that index's window, found by binary search;
//     else every row is a candidate. The probe and the window are exact,
//     so the predicate that chose them is not evaluated again; the
//     remaining predicates are, on each candidate. Predicates are bound
//     to column positions and type-checked once per query, not per row.
//   - Order: candidates are walked in insertion order. Without ORDER BY
//     that is the result order, whatever the access path. An Eq window is
//     in insertion order as it stands (the index orders ties by position),
//     and so is every window of an index whose inserts each appended a
//     position above the last; a range window of an index that an update
//     or an out-of-order insert disturbed is walked from a sorted copy of
//     its positions. ORDER BY on the primary key of a key-ordered table
//     is the same walk, from the end for DESC. Only ORDER BY on another
//     column, or on the key of a table that received keys out of order,
//     collects every match and sorts.
//   - LIMIT k: unless a sort follows, the walk stops at the k-th match.
//
// RowsScanned is the number of candidates examined, so "latest row by
// key" costs 1 and a range costs its window, on any table size.
//
// Select copies the matches into connection-owned buffers; Conn.Each
// lends each matching row to a callback instead (see its borrow rule).
package sqldb

import (
	"errors"
	"fmt"
	"reflect"
)

// ColType is the type of a column.
type ColType int

// Supported column types.
const (
	Int64 ColType = iota
	Float64
	String
	Bool
	Bytes
)

func (t ColType) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	case Bool:
		return "bool"
	case Bytes:
		return "bytes"
	default:
		return "unknown"
	}
}

// Column describes one column of a table.
type Column struct {
	Name string
	Type ColType
}

// Schema describes a table: its columns and primary key. The primary key
// must be an Int64 or String column; Int64 keys auto-increment when a row
// is inserted with a nil key value.
type Schema struct {
	Name       string
	Columns    []Column
	PrimaryKey string
}

// Validation errors.
var (
	ErrBadSchema = errors.New("sqldb: bad schema")
	ErrBadValue  = errors.New("sqldb: value does not match column type")
)

// Validate checks the schema for structural problems.
func (s Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("%w: empty table name", ErrBadSchema)
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("%w: table %q has no columns", ErrBadSchema, s.Name)
	}
	seen := make(map[string]ColType, len(s.Columns))
	for _, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("%w: empty column name in %q", ErrBadSchema, s.Name)
		}
		if _, dup := seen[c.Name]; dup {
			return fmt.Errorf("%w: duplicate column %q in %q", ErrBadSchema, c.Name, s.Name)
		}
		seen[c.Name] = c.Type
	}
	pkType, ok := seen[s.PrimaryKey]
	if !ok {
		return fmt.Errorf("%w: primary key %q is not a column of %q", ErrBadSchema, s.PrimaryKey, s.Name)
	}
	if pkType != Int64 && pkType != String {
		return fmt.Errorf("%w: primary key %q must be int64 or string", ErrBadSchema, s.PrimaryKey)
	}
	return nil
}

// colIndex returns the position of column name, or -1.
func (s Schema) colIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// checkValue verifies that v is assignable to a column of type t. Nil is
// never assignable; absent values must be explicit zero values.
func checkValue(t ColType, v any) error {
	ok := false
	switch t {
	case Int64:
		_, ok = v.(int64)
	case Float64:
		_, ok = v.(float64)
	case String:
		_, ok = v.(string)
	case Bool:
		_, ok = v.(bool)
	case Bytes:
		_, ok = v.([]byte)
	}
	if !ok {
		// reflect.TypeOf rather than %T: handing v itself to fmt would move
		// every value checked here, predicate operands included, to the heap.
		return fmt.Errorf("%w: %v is not %s", ErrBadValue, reflect.TypeOf(v), t)
	}
	return nil
}

// Row is one table row, with values in schema column order.
type Row []any

// Get returns the value of the named column given the row's schema.
func (s Schema) Get(r Row, col string) (any, error) {
	i := s.colIndex(col)
	if i < 0 {
		return nil, fmt.Errorf("sqldb: no column %q in %q", col, s.Name)
	}
	return r[i], nil
}
