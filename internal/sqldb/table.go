package sqldb

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
)

// Row-level errors.
var (
	ErrNoSuchRow    = errors.New("sqldb: no such row")
	ErrDuplicateKey = errors.New("sqldb: duplicate primary key")
	ErrNoSuchColumn = errors.New("sqldb: no such column")
)

// Table is one table: rows in insertion order, a primary-key map into them
// and optional ordered secondary indexes. Tables are safe for concurrent
// use.
type Table struct {
	schema Schema
	pkIdx  int

	mu    sync.RWMutex
	rows  []Row       // in insertion order; a row's position is its slot
	byKey map[any]int // primary key -> slot
	// keyOrdered records that every row so far arrived with a primary key
	// above its predecessor's — auto-increment keys always do — so rows is
	// also sorted by key and ORDER BY on the key needs no sort.
	keyOrdered bool
	indexes    []*index
	autoinc    int64
}

func newTable(s Schema) *Table {
	return &Table{
		schema: s,
		pkIdx:  s.colIndex(s.PrimaryKey),
		byKey:  make(map[any]int),
	}
}

// Schema returns the table's schema.
func (t *Table) Schema() Schema { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// CreateIndex builds an ordered secondary index on col, which Eq, Lt, Le,
// Gt and Ge predicates on col then use. Creating an existing index is a
// no-op.
func (t *Table) CreateIndex(col string) error {
	ci := t.schema.colIndex(col)
	if ci < 0 {
		return fmt.Errorf("%w: %q in %q", ErrNoSuchColumn, col, t.schema.Name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.indexOn(ci) == nil {
		t.indexes = append(t.indexes, newIndex(ci, t.schema.Columns[ci].Type, t.rows))
	}
	return nil
}

// indexOn returns the index on column ci, or nil.
func (t *Table) indexOn(ci int) *index {
	for _, x := range t.indexes {
		if x.ci == ci {
			return x
		}
	}
	return nil
}

// Insert adds row and returns its primary key. A nil Int64 primary key
// auto-increments. Column values are type-checked.
func (t *Table) Insert(row Row) (any, error) {
	if len(row) != len(t.schema.Columns) {
		return nil, fmt.Errorf("sqldb: row width %d, table %q has %d columns",
			len(row), t.schema.Name, len(t.schema.Columns))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// One copy serves both the autoincrement fill-in and the table's
	// ownership of the stored row.
	stored := append(Row(nil), row...)
	pkType := t.schema.Columns[t.pkIdx].Type
	if stored[t.pkIdx] == nil && pkType == Int64 {
		t.autoinc++
		stored[t.pkIdx] = t.autoinc
	}
	for i, c := range t.schema.Columns {
		if err := checkValue(c.Type, stored[i]); err != nil {
			return nil, fmt.Errorf("column %q: %w", c.Name, err)
		}
	}
	key := stored[t.pkIdx]
	if _, dup := t.byKey[key]; dup {
		return nil, fmt.Errorf("%w: %v in %q", ErrDuplicateKey, key, t.schema.Name)
	}
	slot := len(t.rows)
	if slot == math.MaxInt32 {
		return nil, fmt.Errorf("sqldb: table %q is full", t.schema.Name) // indexes hold slots as int32
	}
	if slot == 0 {
		t.keyOrdered = true
	} else if t.keyOrdered {
		t.keyOrdered = cmpValues(pkType, t.rows[slot-1][t.pkIdx], key) < 0
	}
	t.byKey[key] = slot
	t.rows = append(t.rows, stored)
	for _, x := range t.indexes {
		x.add(t.rows, slot)
	}
	// Keep auto-increment ahead of explicit integer keys.
	if k, ok := key.(int64); ok && k > t.autoinc {
		t.autoinc = k
	}
	return key, nil
}

// Get returns a copy of the row with the given primary key.
func (t *Table) Get(pk any) (Row, bool) {
	return t.getRow(pk, nil)
}

// getRow copies the row with the given primary key into buf (reusing its
// capacity) and returns it. Conn.Get passes its connection-owned buffer
// here, which is what makes point reads allocation-free at steady state.
func (t *Table) getRow(pk any, buf Row) (Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	slot, ok := t.byKey[pk]
	if !ok {
		return nil, false
	}
	return append(buf[:0], t.rows[slot]...), true
}

// UpdateCol applies a single column=value assignment to the row with the
// given primary key — the allocation-free form hot write paths use
// instead of building a one-entry map.
func (t *Table) UpdateCol(pk any, col string, val any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	slot, ok := t.byKey[pk]
	if !ok {
		return fmt.Errorf("%w: %v in %q", ErrNoSuchRow, pk, t.schema.Name)
	}
	ci, err := t.checkAssignment(col, val)
	if err != nil {
		return err
	}
	t.assign(slot, ci, val)
	return nil
}

// Update applies the column=value assignments in set to the row with the
// given primary key. The primary key column cannot be updated.
func (t *Table) Update(pk any, set map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	slot, ok := t.byKey[pk]
	if !ok {
		return fmt.Errorf("%w: %v in %q", ErrNoSuchRow, pk, t.schema.Name)
	}
	// Check every assignment before applying any.
	for col, v := range set {
		if _, err := t.checkAssignment(col, v); err != nil {
			return err
		}
	}
	for col, v := range set {
		t.assign(slot, t.schema.colIndex(col), v)
	}
	return nil
}

// checkAssignment validates col = val and returns col's position.
func (t *Table) checkAssignment(col string, val any) (int, error) {
	ci := t.schema.colIndex(col)
	if ci < 0 {
		return 0, fmt.Errorf("%w: %q in %q", ErrNoSuchColumn, col, t.schema.Name)
	}
	if ci == t.pkIdx {
		return 0, fmt.Errorf("sqldb: cannot update primary key of %q", t.schema.Name)
	}
	if err := checkValue(t.schema.Columns[ci].Type, val); err != nil {
		return 0, fmt.Errorf("column %q: %w", col, err)
	}
	return ci, nil
}

// assign stores val in column ci of the row at slot, moving its index
// entry if the column is indexed.
func (t *Table) assign(slot, ci int, val any) {
	x := t.indexOn(ci)
	if x != nil {
		x.remove(t.rows, slot)
	}
	t.rows[slot][ci] = val
	if x != nil {
		x.add(t.rows, slot)
	}
}

// Delete removes the row with the given primary key, reporting whether it
// existed. Later rows move down one slot, so a delete costs O(table);
// nothing on the TPC-W request path deletes.
func (t *Table) Delete(pk any) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	slot, ok := t.byKey[pk]
	if !ok {
		return false
	}
	for _, x := range t.indexes {
		x.remove(t.rows, slot)
		x.closeGap(slot)
	}
	delete(t.byKey, pk)
	t.rows = slices.Delete(t.rows, slot, slot+1)
	for s := slot; s < len(t.rows); s++ {
		t.byKey[t.rows[s][t.pkIdx]] = s
	}
	return true
}

// queryScratch is the reusable storage one query fills: the result row
// headers and the flat value arena the rows point into, plus the slot list
// of an index window that had to be put back into insertion order. A Conn
// owns one and passes it to every query, so the per-query make-and-copy of
// the result set amortises to zero once the buffers have grown to the
// connection's working set.
type queryScratch struct {
	rows  []Row
	arena []any
	slots []int32
}

// plan is how one query will be evaluated: which rows are candidates, in
// which direction they are walked, and what is left to do to the matches.
type plan struct {
	// preds are the predicates left to evaluate on each candidate: not
	// the one the access path already proved.
	preds []boundPred
	// Candidates are the rows at idx.slots[lo:hi], or rows[lo:hi] when idx
	// is nil. slotOrdered says idx.slots[lo:hi] is ascending: always for
	// an Eq window, whose ties the index orders by slot, and for any
	// window of an index still in insertion order.
	idx         *index
	lo, hi      int
	slotOrdered bool
	// fromEnd walks the candidates last to first: ORDER BY key DESC on a
	// key-ordered table.
	fromEnd bool
	// sortCol is the column the matches must still be sorted by, -1 when
	// the walk already yields the requested order; sortDesc is its
	// direction.
	sortCol  int
	sortDesc bool
	// limit is the most rows the query wants (0: all). Without a sort the
	// walk ends at that many matches; a sort needs every match first and
	// is cut afterwards.
	limit int
}

// planLocked binds q to the table and picks its access path: an Eq on the
// primary key is one probe, else the first predicate an index can serve
// narrows the candidates to that index's window, else every row is a
// candidate. The probe and the window are exact, so the predicate that
// chose them leaves the plan. Candidates are always walked in insertion
// order, which on a key-ordered table is key order — so there ORDER BY on
// the key costs nothing and a LIMIT ends the walk early.
func (t *Table) planLocked(q Query, buf []boundPred) (plan, error) {
	p := plan{sortCol: -1, hi: len(t.rows), limit: q.Limit}
	var err error
	if p.preds, err = q.bind(t.schema, buf); err != nil {
		return p, err
	}
	if q.OrderBy != "" {
		ci := t.schema.colIndex(q.OrderBy)
		switch {
		case ci < 0:
			return p, fmt.Errorf("%w: order by %q in %q", ErrNoSuchColumn, strings.Clone(q.OrderBy), t.schema.Name) // a clone, see Query.bind
		case ci == t.pkIdx && t.keyOrdered:
			p.fromEnd = q.Desc
		default:
			p.sortCol, p.sortDesc = ci, q.Desc
		}
	}
	for i := range p.preds {
		if pr := &p.preds[i]; pr.op == Eq && pr.ci == t.pkIdx {
			p.lo, p.hi = 0, 0
			if slot, ok := t.byKey[q.Where[i].Val]; ok {
				p.lo, p.hi = slot, slot+1
			}
			p.preds = slices.Delete(p.preds, i, i+1)
			return p, nil
		}
	}
	for i := range p.preds {
		pr := &p.preds[i]
		if pr.op == Ne || pr.op == Contains {
			continue
		}
		if x := t.indexOn(pr.ci); x != nil {
			p.idx = x
			p.lo, p.hi = x.window(t.rows, pr.op, &pr.operand)
			p.slotOrdered = pr.op == Eq || x.inOrder
			p.preds = slices.Delete(p.preds, i, i+1)
			return p, nil
		}
	}
	return p, nil
}

// scanLocked walks the plan's candidates and calls visit with each row
// that satisfies every predicate, until visit returns false or the plan's
// limit is reached. It returns the rows examined and the rows visited.
// visit sees the table's own row: it must not keep or change it.
func (t *Table) scanLocked(p *plan, sc *queryScratch, visit func(Row) bool) (scanned, visited int64) {
	// An index window lists rows by value first; unless the plan knows
	// that is insertion order, walk a sorted copy of its slots instead.
	var window []int32
	if p.idx != nil {
		window = p.idx.slots[p.lo:p.hi]
		if !p.slotOrdered {
			sc.slots = append(sc.slots[:0], window...)
			window = sc.slots
			slices.Sort(window)
		}
	}
	for n := 0; n < p.hi-p.lo; n++ {
		i := n
		if p.fromEnd {
			i = p.hi - p.lo - 1 - n
		}
		slot := p.lo + i
		if p.idx != nil {
			slot = int(window[i])
		}
		r := t.rows[slot]
		scanned++
		if !matchesAll(p.preds, r) {
			continue
		}
		visited++
		if !visit(r) || p.sortCol < 0 && visited == int64(p.limit) {
			break
		}
	}
	return scanned, visited
}

// collectLocked runs the plan and returns copies of the matching rows, in
// the requested order and number, plus the rows examined. The copies live
// in sc's buffers.
func (t *Table) collectLocked(p *plan, sc *queryScratch) ([]Row, int64) {
	out, arena := sc.rows[:0], sc.arena[:0]
	scanned, _ := t.scanLocked(p, sc, func(r Row) bool {
		// A grow may move the arena to a new backing array; rows appended
		// earlier keep pointing at the old one, which still holds their
		// (already copied) values — correctness is unaffected, and the
		// arena reaches a stable capacity after the first few queries.
		base := len(arena)
		arena = append(arena, r...)
		out = append(out, arena[base:len(arena):len(arena)])
		return true
	})
	sc.rows, sc.arena = out, arena
	if p.sortCol < 0 {
		return out, scanned
	}
	// The table's insertion order is not the requested order: sort every
	// match, stably so equal values stay in insertion order, then cut.
	ci, ct, desc := p.sortCol, t.schema.Columns[p.sortCol].Type, p.sortDesc
	slices.SortStableFunc(out, func(a, b Row) int {
		if desc {
			a, b = b, a
		}
		return cmpValues(ct, a[ci], b[ci])
	})
	if p.limit > 0 && len(out) > p.limit {
		out = out[:p.limit]
	}
	return out, scanned
}

// selectRows evaluates q and returns copies of the matching rows plus the
// number of rows examined (the cost driver). The returned rows live in
// sc's buffers and are valid until sc is next reused (the Conn borrow
// contract); a nil sc falls back to fresh allocations.
func (t *Table) selectRows(q Query, sc *queryScratch) ([]Row, int64, error) {
	if sc == nil {
		sc = &queryScratch{}
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	var buf [4]boundPred
	p, err := t.planLocked(q, buf[:0])
	if err != nil {
		return nil, 0, err
	}
	rows, scanned := t.collectLocked(&p, sc)
	return rows, scanned, nil
}

// each evaluates q and calls fn with every matching row, in the order
// selectRows would return them, until fn returns false. It returns the
// rows examined and the rows fn saw. fn runs under the table's read lock
// on the table's own rows; see Conn.Each for what that forbids.
func (t *Table) each(q Query, sc *queryScratch, fn func(Row) bool) (scanned, visited int64, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var buf [4]boundPred
	p, err := t.planLocked(q, buf[:0])
	if err != nil {
		return 0, 0, err
	}
	if p.sortCol < 0 {
		scanned, visited = t.scanLocked(&p, sc, fn)
		return scanned, visited, nil
	}
	// A sort needs the matches side by side, so this order is served from
	// copies after all.
	rows, scanned := t.collectLocked(&p, sc)
	for _, r := range rows {
		visited++
		if !fn(r) {
			break
		}
	}
	return scanned, visited, nil
}
