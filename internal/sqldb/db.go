package sqldb

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
)

// ErrNoSuchTable reports a reference to an unknown table.
var ErrNoSuchTable = errors.New("sqldb: no such table")

// DB is a named collection of tables with engine-wide statistics.
type DB struct {
	// Tables are created at schema load and read on every query, so the
	// name map is a copy-on-write snapshot: readers load it with no lock,
	// and mu only serialises CreateTable.
	mu     sync.Mutex
	tables atomic.Pointer[map[string]*Table]

	queries     atomic.Int64
	rowsScanned atomic.Int64
}

// NewDB creates an empty database.
func NewDB() *DB {
	db := &DB{}
	db.tables.Store(&map[string]*Table{})
	return db
}

// CreateTable adds a table described by schema.
func (db *DB) CreateTable(schema Schema) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	cur := *db.tables.Load()
	if _, dup := cur[schema.Name]; dup {
		return nil, fmt.Errorf("sqldb: table %q already exists", schema.Name)
	}
	next := maps.Clone(cur)
	t := newTable(schema)
	next[schema.Name] = t
	db.tables.Store(&next)
	return t, nil
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, error) {
	t, ok := (*db.tables.Load())[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return t, nil
}

// TableNames lists the tables, sorted.
func (db *DB) TableNames() []string {
	return slices.Sorted(maps.Keys(*db.tables.Load()))
}

// EngineStats aggregates engine-wide counters.
type EngineStats struct {
	Queries     int64
	RowsScanned int64
}

// Stats returns engine-wide counters (selects only; point reads and writes
// are charged one scanned row each).
func (db *DB) Stats() EngineStats {
	return EngineStats{
		Queries:     db.queries.Load(),
		RowsScanned: db.rowsScanned.Load(),
	}
}

func (db *DB) charge(queries, scanned int64) {
	db.queries.Add(queries)
	db.rowsScanned.Add(scanned)
}
