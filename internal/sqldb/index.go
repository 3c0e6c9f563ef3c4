package sqldb

import (
	"math"
	"slices"
)

// index is an ordered secondary index on one column: the table's row
// positions, sorted by the rows' column value and, among equal values, by
// position — that is, by insertion order. A window of equal or adjacent
// values is found by binary search and read off in place. Entries are bare
// positions (values are read through the table's rows) so that the tail an
// out-of-order insert has to shift stays small.
type index struct {
	ci    int
	ct    ColType
	slots []int32
	// inOrder records that slots is ascending, so that every window is in
	// insertion order. It holds while each add appends a slot above the
	// last one, as the newest row of a column that grows with the table
	// does; remove and closeGap keep slots ascending.
	inOrder bool
}

func newIndex(ci int, ct ColType, rows []Row) *index {
	x := &index{ci: ci, ct: ct, slots: make([]int32, len(rows))}
	for i := range x.slots {
		x.slots[i] = int32(i)
	}
	slices.SortStableFunc(x.slots, func(a, b int32) int { return cmpValues(ct, rows[a][ci], rows[b][ci]) })
	x.inOrder = slices.IsSorted(x.slots)
	return x
}

// lower returns the first index position whose row sorts at or after
// (o, slot).
func (x *index) lower(rows []Row, o *operand, slot int) int {
	// Hand-rolled rather than sort.Search: this runs once per insert of an
	// out-of-order value, where the closure call per step is a tenth of
	// the whole insert.
	lo, hi := 0, len(x.slots)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		s := int(x.slots[mid])
		if c := o.cmp(rows[s][x.ci]); c < 0 || c == 0 && s < slot {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// add enters the row at slot. A row that sorts after every indexed one —
// the newest row of a column that grows with the table, such as a foreign
// key to an auto-increment table — appends; anything else shifts the tail.
func (x *index) add(rows []Row, slot int) {
	o := storedOperand(x.ct, rows[slot][x.ci])
	at := len(x.slots)
	if at > 0 {
		last := int(x.slots[at-1])
		if c := o.cmp(rows[last][x.ci]); c > 0 || c == 0 && last > slot {
			at = x.lower(rows, &o, slot)
		}
	}
	n := len(x.slots)
	x.inOrder = n == 0 || x.inOrder && at == n && slot > int(x.slots[n-1])
	x.slots = slices.Insert(x.slots, at, int32(slot))
}

// remove drops the row at slot, which still holds the value it was indexed
// under.
func (x *index) remove(rows []Row, slot int) {
	o := storedOperand(x.ct, rows[slot][x.ci])
	at := x.lower(rows, &o, slot)
	x.slots = slices.Delete(x.slots, at, at+1)
}

// closeGap renumbers the index after the row at slot left the table and
// every later row moved down one.
func (x *index) closeGap(slot int) {
	for i, s := range x.slots {
		if int(s) > slot {
			x.slots[i]--
		}
	}
}

// window returns the bounds of the index positions whose rows satisfy op
// against o; op is one of Eq, Lt, Le, Gt, Ge.
func (x *index) window(rows []Row, op Op, o *operand) (lo, hi int) {
	switch op {
	case Eq:
		return x.lower(rows, o, 0), x.lower(rows, o, math.MaxInt)
	case Lt:
		return 0, x.lower(rows, o, 0)
	case Le:
		return 0, x.lower(rows, o, math.MaxInt)
	case Gt:
		return x.lower(rows, o, math.MaxInt), len(x.slots)
	default:
		return x.lower(rows, o, 0), len(x.slots)
	}
}
