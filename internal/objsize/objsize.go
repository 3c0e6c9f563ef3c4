// Package objsize estimates the retained memory size of live Go values by
// reflection. It stands in for the paper's JMX monitoring agent that reports
// "the real size of a Java Object": the size of the object under monitoring
// including the objects it references directly, but without following the
// references of those referenced objects (one level of indirection), so the
// measurement never walks the entire object graph of the application.
//
// The depth policy is configurable because the paper's one-level rule is a
// pragmatic cut-off, not a law: Shallow counts only the inline
// representation, OneLevel reproduces the paper, TwoLevel follows one more
// hop, and Transitive walks the full reachable graph with cycle detection.
//
// A referenced object at the last level counts its inline size and nothing
// it references, so that size is its type's. One level is therefore a
// closed form: a slice charges cap × the element size, a map charges
// len × (a fixed per-entry overhead + key size + element size), a pointer
// or interface the size of its target's type, a string its length. No
// element or entry is visited, and a measurement costs the same however
// large the component's slices and maps have grown.
package objsize

import (
	"reflect"
	"sync"
)

// Policy selects how many levels of indirection a measurement follows.
type Policy int

// Available measurement policies.
const (
	// Shallow counts only the inline representation of the value.
	Shallow Policy = iota
	// OneLevel additionally counts data reachable through one
	// indirection (pointee, slice backing array, string payload, map
	// contents, interface dynamic value). This is the paper's policy.
	OneLevel
	// TwoLevel follows two levels of indirection.
	TwoLevel
	// Transitive walks the full reachable graph, visiting every
	// referenced object exactly once (cycle- and sharing-safe).
	Transitive
)

func (p Policy) String() string {
	switch p {
	case Shallow:
		return "shallow"
	case OneLevel:
		return "one-level"
	case TwoLevel:
		return "two-level"
	case Transitive:
		return "transitive"
	default:
		return "unknown"
	}
}

func (p Policy) depth() int {
	switch p {
	case Shallow:
		return 0
	case OneLevel:
		return 1
	case TwoLevel:
		return 2
	default:
		return 1 << 30
	}
}

// mapEntryOverhead approximates the per-entry bucket overhead of the Go
// runtime map implementation. The exact constant is irrelevant to the
// experiments; it only needs to scale linearly with entries.
const mapEntryOverhead = 16

// Sizer measures values under a fixed policy. The zero value measures with
// the Shallow policy; construct with New for other policies. A Sizer is
// stateless between calls and safe for concurrent use.
type Sizer struct {
	policy Policy
}

// New returns a Sizer with the given policy.
func New(policy Policy) *Sizer { return &Sizer{policy: policy} }

// Of returns the estimated retained size of v in bytes under the sizer's
// policy. A nil value measures zero.
func (s *Sizer) Of(v any) int64 {
	if v == nil {
		return 0
	}
	var w walker
	rv := reflect.ValueOf(v)
	// The interface passed in is a transparency device, not part of the
	// object: measuring starts at the dynamic value without charging an
	// indirection level. Likewise, root pointers dereference for free —
	// a Go pointer to the component is how the caller names the object
	// under monitoring, just as a Java reference names the monitored
	// object — so the policy budget applies to the object's own
	// references, matching the paper's semantics.
	var total int64
	depth := s.policy.depth()
	for rv.Kind() == reflect.Pointer && !rv.IsNil() {
		total += int64(rv.Type().Size())
		if !w.mark(rv.Pointer(), rv.Type().Elem()) {
			return total
		}
		rv = rv.Elem()
	}
	return total + w.size(rv, depth)
}

// Of measures v with the Transitive policy, the convenient default for
// callers that want the full retained size.
func Of(v any) int64 { return New(Transitive).Of(v) }

// visit identifies an already-counted referenced region so shared and
// cyclic structures are counted once.
type visit struct {
	ptr uintptr
	typ reflect.Type
}

// inlineVisits is how many visited regions a walk holds in place before
// it spills to a map. A one- or two-level walk of a component marks a
// handful (its root, slices, maps and pointers), so the linear scan is a
// few compares and the walk allocates nothing.
const inlineVisits = 16

type walker struct {
	n       int
	visited [inlineVisits]visit
	spill   map[visit]struct{} // past inlineVisits; Transitive walks of large graphs
}

// size returns the inline size of v plus referenced data reachable within
// the given remaining indirection budget.
func (w *walker) size(v reflect.Value, depth int) int64 {
	if !v.IsValid() {
		return 0
	}
	total := int64(v.Type().Size())
	total += w.indirect(v, depth)
	return total
}

// indirect returns the size of data reachable from v through indirections,
// without counting v's own inline representation. Struct fields and array
// elements are part of the inline representation, so they are traversed at
// the same depth; pointers, slices, strings, maps and interfaces consume
// one level of the budget.
func (w *walker) indirect(v reflect.Value, depth int) int64 {
	if depth <= 0 {
		// At the last level nothing is followed and nothing is marked:
		// a value is its inline representation, its type's size.
		return 0
	}
	switch v.Kind() {
	case reflect.Struct:
		if !hasIndirections(v.Type()) {
			return 0
		}
		var sum int64
		for i := 0; i < v.NumField(); i++ {
			sum += w.indirect(v.Field(i), depth)
		}
		return sum

	case reflect.Array:
		if !hasIndirections(v.Type().Elem()) {
			return 0
		}
		var sum int64
		for i := 0; i < v.Len(); i++ {
			sum += w.indirect(v.Index(i), depth)
		}
		return sum

	case reflect.Pointer:
		if v.IsNil() || !w.mark(v.Pointer(), v.Type().Elem()) {
			return 0
		}
		return w.size(v.Elem(), depth-1)

	case reflect.String:
		return int64(v.Len())

	case reflect.Slice:
		if v.IsNil() {
			return 0
		}
		if v.Cap() > 0 && !w.mark(v.Pointer(), v.Type().Elem()) {
			return 0
		}
		elemType := v.Type().Elem()
		// The backing array is charged for its full capacity; element
		// payloads beyond len are unreachable and counted inline only.
		sum := int64(elemType.Size()) * int64(v.Cap())
		// The elements' own references are one level further: there are
		// none to follow at the last level or in a pointer-free element
		// type (the flat []byte leak buffers), and a megabyte buffer must
		// not cost a million reflect calls.
		if depth > 1 && hasIndirections(elemType) {
			for i := 0; i < v.Len(); i++ {
				sum += w.indirect(v.Index(i), depth-1)
			}
		}
		return sum

	case reflect.Map:
		if v.IsNil() || !w.mark(v.Pointer(), v.Type()) {
			return 0
		}
		if depth == 1 {
			// Every entry is sized at the last level, by its types.
			t := v.Type()
			return int64(v.Len()) * (mapEntryOverhead + int64(t.Key().Size()) + int64(t.Elem().Size()))
		}
		var sum int64
		iter := v.MapRange()
		for iter.Next() {
			sum += mapEntryOverhead
			sum += w.size(iter.Key(), depth-1)
			sum += w.size(iter.Value(), depth-1)
		}
		return sum

	case reflect.Interface:
		if v.IsNil() {
			return 0
		}
		return w.size(v.Elem(), depth-1)

	default:
		// Chans, funcs and unsafe pointers are opaque: header only.
		return 0
	}
}

// mark records the region at ptr of type typ as counted and reports
// whether it was new.
func (w *walker) mark(ptr uintptr, typ reflect.Type) bool {
	for i := 0; i < w.n; i++ {
		if w.visited[i].ptr == ptr && w.visited[i].typ == typ {
			return false
		}
	}
	key := visit{ptr: ptr, typ: typ}
	if w.n < inlineVisits {
		w.visited[w.n] = key
		w.n++
		return true
	}
	if _, seen := w.spill[key]; seen {
		return false
	}
	if w.spill == nil {
		w.spill = make(map[visit]struct{})
	}
	w.spill[key] = struct{}{}
	return true
}

// indirCache memoizes hasIndirections per type; the type set of a program
// is small and fixed, so a global cache is both safe and effective.
var indirCache sync.Map // reflect.Type -> bool

// hasIndirections reports whether values of type t can reference data
// outside their inline representation.
func hasIndirections(t reflect.Type) bool {
	if v, ok := indirCache.Load(t); ok {
		return v.(bool)
	}
	// Only the final answer is stored: a concurrent first measurement of
	// t must not read a provisional one. Recursion needs no guard, since
	// it passes only through struct fields and array elements, and a type
	// cannot contain itself without a pointer, slice or map in between,
	// which answer true without recursing.
	res := false
	switch t.Kind() {
	case reflect.Pointer, reflect.String, reflect.Slice, reflect.Map,
		reflect.Interface, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		res = true
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasIndirections(t.Field(i).Type) {
				res = true
				break
			}
		}
	case reflect.Array:
		res = hasIndirections(t.Elem())
	}
	indirCache.Store(t, res)
	return res
}
