package sqldb

import (
	"bytes"
	"cmp"
	"fmt"
	"strings"
)

// Op is a predicate comparison operator.
type Op int

// Supported operators. Contains applies to String columns only
// (substring match, the engine's LIKE '%x%').
const (
	Eq Op = iota
	Ne
	Lt
	Le
	Gt
	Ge
	Contains
)

func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Contains:
		return "CONTAINS"
	default:
		return "?"
	}
}

// Pred is one WHERE predicate; a query's predicates are ANDed.
type Pred struct {
	Col string
	Op  Op
	Val any
}

// Query selects rows: ANDed predicates, optional ordering and limit.
// The zero Query selects everything.
type Query struct {
	Where   []Pred
	OrderBy string // column name; empty for storage order
	Desc    bool
	Limit   int // 0 means no limit
}

// Where is a convenience constructor for a single-predicate query.
func Where(col string, op Op, val any) Query {
	return Query{Where: []Pred{{Col: col, Op: op, Val: val}}}
}

// And appends a predicate, returning the updated query for chaining.
func (q Query) And(col string, op Op, val any) Query {
	q.Where = append(q.Where, Pred{Col: col, Op: op, Val: val})
	return q
}

// Ordered sets the ordering column and direction.
func (q Query) Ordered(col string, desc bool) Query {
	q.OrderBy = col
	q.Desc = desc
	return q
}

// Limited sets the row limit.
func (q Query) Limited(n int) Query {
	q.Limit = n
	return q
}

// operand is a comparison value unpacked from its interface once, so a
// query type-checks each predicate value when it is planned rather than on
// every row, and the value's box never outlives the call that passed it.
type operand struct {
	t ColType
	i int64 // Int64; Bool as 0 or 1
	f float64
	s string
	b []byte
}

// storedOperand unpacks a value of column type t that checkValue has
// already passed, as every stored value and every bound predicate has.
func storedOperand(t ColType, v any) operand {
	o := operand{t: t}
	switch t {
	case Int64:
		o.i = v.(int64)
	case Float64:
		o.f = v.(float64)
	case String:
		o.s = v.(string)
	case Bool:
		if v.(bool) {
			o.i = 1
		}
	case Bytes:
		o.b = v.([]byte)
	}
	return o
}

// cmp orders the stored value v, which the table type-checked on the way
// in, against the operand: negative when v sorts first.
func (o *operand) cmp(v any) int {
	switch o.t {
	case Int64:
		return cmp.Compare(v.(int64), o.i)
	case Float64:
		return cmp.Compare(v.(float64), o.f)
	case String:
		return strings.Compare(v.(string), o.s)
	case Bool:
		var x int64
		if v.(bool) {
			x = 1
		}
		return cmp.Compare(x, o.i)
	default:
		return bytes.Compare(v.([]byte), o.b)
	}
}

// cmpValues orders two stored values of column type t.
func cmpValues(t ColType, a, b any) int {
	o := storedOperand(t, b)
	return o.cmp(a)
}

// boundPred is a predicate resolved against a schema: column position,
// operator and unpacked value.
type boundPred struct {
	ci int
	op Op
	operand
}

// bind resolves the query's predicates against s, appending to buf. Error
// messages name clones of the query's strings: handing fmt the originals
// would, as far as escape analysis can tell, publish the whole query, and
// every caller's predicate slice and boxed values would move to the heap.
func (q Query) bind(s Schema, buf []boundPred) ([]boundPred, error) {
	for _, p := range q.Where {
		ci := s.colIndex(p.Col)
		if ci < 0 {
			return nil, fmt.Errorf("%w: %q in %q", ErrNoSuchColumn, strings.Clone(p.Col), s.Name)
		}
		ct := s.Columns[ci].Type
		if p.Op < Eq || p.Op > Contains {
			return nil, fmt.Errorf("sqldb: unknown operator %d", p.Op)
		}
		if p.Op == Contains && ct != String {
			return nil, fmt.Errorf("sqldb: CONTAINS on non-string column type %s", ct)
		}
		if err := checkValue(ct, p.Val); err != nil {
			return nil, fmt.Errorf("%s %q: %w", p.Op, strings.Clone(p.Col), err)
		}
		buf = append(buf, boundPred{ci: ci, op: p.Op, operand: storedOperand(ct, p.Val)})
	}
	return buf, nil
}

func (p *boundPred) matches(r Row) bool {
	if p.op == Contains {
		return strings.Contains(r[p.ci].(string), p.s)
	}
	c := p.cmp(r[p.ci])
	switch p.op {
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
	default: // Ge; bind admits no other operator
		return c >= 0
	}
}

func matchesAll(preds []boundPred, r Row) bool {
	for i := range preds {
		if !preds[i].matches(r) {
			return false
		}
	}
	return true
}
