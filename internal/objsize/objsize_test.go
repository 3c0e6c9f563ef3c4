// The tests sit outside the package so they can measure the components
// of packages that import it (faultinject, tpcw); the dot import keeps
// them reading as if inside.
package objsize_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/aspect"
	"repro/internal/faultinject"
	. "repro/internal/objsize"
	"repro/internal/sqldb"
	"repro/internal/tpcw"
)

var policies = []Policy{Shallow, OneLevel, TwoLevel, Transitive}

func TestNilMeasuresZero(t *testing.T) {
	for _, p := range policies {
		if got := New(p).Of(nil); got != 0 {
			t.Fatalf("policy %v: Of(nil) = %d", p, got)
		}
	}
}

func TestScalarSizes(t *testing.T) {
	s := New(Shallow)
	if got := s.Of(int64(1)); got != 8 {
		t.Fatalf("int64 = %d", got)
	}
	if got := s.Of(byte(1)); got != 1 {
		t.Fatalf("byte = %d", got)
	}
	if got := s.Of(3.14); got != 8 {
		t.Fatalf("float64 = %d", got)
	}
}

func TestStringPolicies(t *testing.T) {
	str := "hello, world" // 12 bytes payload
	header := int64(unsafe.Sizeof(""))
	if got := New(Shallow).Of(str); got != header {
		t.Fatalf("shallow string = %d, want %d", got, header)
	}
	if got := New(OneLevel).Of(str); got != header+12 {
		t.Fatalf("one-level string = %d, want %d", got, header+12)
	}
}

func TestByteSlicePolicies(t *testing.T) {
	buf := make([]byte, 1000)
	header := int64(unsafe.Sizeof([]byte(nil)))
	if got := New(Shallow).Of(buf); got != header {
		t.Fatalf("shallow = %d, want header %d", got, header)
	}
	if got := New(OneLevel).Of(buf); got != header+1000 {
		t.Fatalf("one-level = %d, want %d", got, header+1000)
	}
}

func TestSliceCapacityCounted(t *testing.T) {
	buf := make([]byte, 10, 1000)
	header := int64(unsafe.Sizeof([]byte(nil)))
	if got := New(OneLevel).Of(buf); got != header+1000 {
		t.Fatalf("capacity not charged: %d, want %d", got, header+1000)
	}
}

func TestNestedSliceDepth(t *testing.T) {
	// [][]byte: outer backing array at level 1 holds inner headers;
	// inner payloads live at level 2.
	chunks := [][]byte{make([]byte, 100), make([]byte, 100)}
	hdr := int64(unsafe.Sizeof([]byte(nil)))
	one := New(OneLevel).Of(chunks)
	wantOne := hdr + 2*hdr // outer header + backing array of two headers
	if one != wantOne {
		t.Fatalf("one-level nested = %d, want %d (payloads excluded)", one, wantOne)
	}
	two := New(TwoLevel).Of(chunks)
	if two != wantOne+200 {
		t.Fatalf("two-level nested = %d, want %d", two, wantOne+200)
	}
}

type leaky struct {
	id   int64
	leak []byte
}

func TestStructWithLeakBuffer(t *testing.T) {
	// The fault injector retains leaks as a flat []byte precisely so the
	// paper's one-level policy sees them. This is that contract.
	l := &leaky{id: 7, leak: make([]byte, 100*1024)}
	got := New(OneLevel).Of(l)
	if got < 100*1024 {
		t.Fatalf("one-level leak measurement = %d, want >= 100KiB", got)
	}
	if delta := got - 100*1024; delta > 256 {
		t.Fatalf("overhead beyond payload = %d bytes, suspicious", delta)
	}
}

func TestGrowthIsMonotone(t *testing.T) {
	// Retained size charges slice capacity (the backing array really is
	// retained), so growth is stepwise: non-decreasing every step and
	// strictly larger over the whole run.
	l := &leaky{}
	s := New(Transitive)
	initial := s.Of(l)
	prev := initial
	for i := 0; i < 10; i++ {
		l.leak = append(l.leak, make([]byte, 10*1024)...)
		cur := s.Of(l)
		if cur < prev {
			t.Fatalf("size shrank after leak: %d -> %d", prev, cur)
		}
		prev = cur
	}
	if prev < initial+100*1024 {
		t.Fatalf("size grew %d bytes over 100KiB of leaks", prev-initial)
	}
}

type node struct {
	payload [64]byte
	next    *node
}

func TestCycleSafe(t *testing.T) {
	a, b := &node{}, &node{}
	a.next, b.next = b, a
	got := New(Transitive).Of(a)
	nodeSz := int64(unsafe.Sizeof(node{}))
	ptr := int64(unsafe.Sizeof(uintptr(0)))
	// The root pointer, then a and b once each: b's pointer back to a
	// is already counted.
	if want := ptr + 2*nodeSz; got != want {
		t.Fatalf("cyclic size = %d, want %d", got, want)
	}
}

func TestSharedBackingCountedOnce(t *testing.T) {
	buf := make([]byte, 1024)
	type holder struct{ a, b []byte }
	h := holder{a: buf, b: buf}
	got := New(Transitive).Of(h)
	hdr := int64(unsafe.Sizeof([]byte(nil)))
	want := 2*hdr + 1024
	if got != want {
		t.Fatalf("shared backing = %d, want %d (counted once)", got, want)
	}
}

func TestMapMeasurement(t *testing.T) {
	m := map[int64]int64{1: 1, 2: 2, 3: 3}
	header := int64(unsafe.Sizeof(uintptr(0)))
	// map header + 3 × (per-entry overhead + 8-byte key + 8-byte value)
	want := header + 3*(mapEntryOverhead+16)
	for _, p := range []Policy{OneLevel, TwoLevel, Transitive} {
		if got := New(p).Of(m); got != want {
			t.Fatalf("%v map = %d, want %d", p, got, want)
		}
	}
	if got := New(Shallow).Of(m); got != header {
		t.Fatalf("shallow map = %d", got)
	}
}

func TestInterfaceField(t *testing.T) {
	type box struct{ v any }
	b := box{v: [256]byte{}}
	got := New(OneLevel).Of(b)
	if got < 256 {
		t.Fatalf("interface payload not counted: %d", got)
	}
}

func TestNilPointerAndSlice(t *testing.T) {
	type s struct {
		p *int64
		b []byte
		m map[int]int
	}
	v := s{}
	got := New(Transitive).Of(v)
	if want := int64(unsafe.Sizeof(v)); got != want {
		t.Fatalf("all-nil struct = %d, want %d", got, want)
	}
}

func TestPolicyString(t *testing.T) {
	cases := map[Policy]string{
		Shallow: "shallow", OneLevel: "one-level",
		TwoLevel: "two-level", Transitive: "transitive", Policy(99): "unknown",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Fatalf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

func TestDefaultOfIsTransitive(t *testing.T) {
	chunks := [][]byte{make([]byte, 100)}
	if Of(chunks) <= New(OneLevel).Of(chunks) {
		t.Fatal("package-level Of should follow deeper than one level")
	}
}

func TestTransitiveAtLeastOneLevel(t *testing.T) {
	// Property: deeper policies never report less than shallower ones.
	f := func(payload []byte, n uint8) bool {
		type wrap struct {
			bufs [][]byte
			m    map[uint8][]byte
		}
		w := wrap{m: map[uint8][]byte{n: payload}}
		for i := 0; i < int(n%8); i++ {
			w.bufs = append(w.bufs, payload)
		}
		sh := New(Shallow).Of(w)
		one := New(OneLevel).Of(w)
		two := New(TwoLevel).Of(w)
		tr := New(Transitive).Of(w)
		return sh <= one && one <= two && two <= tr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArrayElementsInline(t *testing.T) {
	var a [4][]byte
	for i := range a {
		a[i] = make([]byte, 10)
	}
	got := New(OneLevel).Of(a)
	hdr := int64(unsafe.Sizeof([]byte(nil)))
	want := 4*hdr + 40 // array is inline; payloads are one hop away
	if got != want {
		t.Fatalf("array = %d, want %d", got, want)
	}
}

// TestConcurrentFirstMeasurement: goroutines that measure a type for the
// first time at once must all see its payload. Each round builds a fresh
// struct type (nested struct fields ahead of a []byte payload, so working
// out whether it references anything takes a while) and measures one value
// of it from several goroutines released together.
func TestConcurrentFirstMeasurement(t *testing.T) {
	const rounds, workers = 50, 8
	sizer := New(OneLevel)
	for r := 0; r < rounds; r++ {
		var fields []reflect.StructField
		for i := 0; i < 32; i++ {
			inner := reflect.StructOf([]reflect.StructField{
				{Name: fmt.Sprintf("A%d_%d", r, i), Type: reflect.TypeOf(int64(0))},
				{Name: fmt.Sprintf("B%d_%d", r, i), Type: reflect.TypeOf([4]int32{})},
			})
			fields = append(fields, reflect.StructField{Name: fmt.Sprintf("F%d", i), Type: inner})
		}
		fields = append(fields, reflect.StructField{Name: "Payload", Type: reflect.TypeOf([]byte(nil))})
		typ := reflect.StructOf(fields)
		ptr := reflect.New(typ)
		ptr.Elem().FieldByName("Payload").Set(reflect.ValueOf(make([]byte, 4096)))
		target := ptr.Interface()

		got := make([]int64, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[w] = sizer.Of(target)
			}()
		}
		close(start)
		wg.Wait()

		serial := sizer.Of(target)
		if want := int64(unsafe.Sizeof(uintptr(0))) + int64(typ.Size()) + 4096; serial != want {
			t.Fatalf("round %d: serial = %d, want %d", r, serial, want)
		}
		for w, n := range got {
			if n != serial {
				t.Fatalf("round %d, goroutine %d: concurrent first measurement = %d, serial = %d", r, w, n, serial)
			}
		}
	}
}

// assertMatchesReference measures v under every policy with the current
// walker and the reference one and fails on the first difference.
func assertMatchesReference(t *testing.T, name string, v any) {
	t.Helper()
	for _, p := range policies {
		if got, want := New(p).Of(v), refOf(p, v); got != want {
			t.Fatalf("%s, %v: walker = %d, reference = %d", name, p, got, want)
		}
	}
}

// fleetComp is the shape of the benchmark's synthetic fleet component.
type fleetComp struct {
	faultinject.LeakStore
	cache map[string]int
}

// cacheComp is the shape of the sizing-policy ablation's component.
type cacheComp struct {
	faultinject.LeakStore
	cache map[string][]byte
}

func TestDifferentialComponents(t *testing.T) {
	// Leak stores in every state the injectors drive them through: empty,
	// grown by append below the reserve threshold, cut from the reserve
	// (buf and reserve share one array, charged once), grown by
	// fragments, and released.
	stores := map[string]func(*faultinject.LeakStore){
		"empty":   func(*faultinject.LeakStore) {},
		"small":   func(s *faultinject.LeakStore) { s.Retain(1000) },
		"reserve": func(s *faultinject.LeakStore) { s.Retain(100 << 10) },
		"paper": func(s *faultinject.LeakStore) {
			for i := 0; i < 12; i++ {
				s.Retain(100 << 10)
			}
		},
		"fragment": func(s *faultinject.LeakStore) {
			for i := 0; i < 200; i++ {
				s.Retain(500 + 37*i)
			}
		},
		"released": func(s *faultinject.LeakStore) { s.Retain(300 << 10); s.Release() },
	}
	for name, grow := range stores {
		s := &faultinject.LeakStore{}
		grow(s)
		assertMatchesReference(t, "LeakStore/"+name, s)

		fc := &fleetComp{cache: map[string]int{}}
		grow(&fc.LeakStore)
		for i := 0; i < 40; i++ {
			fc.cache[fmt.Sprintf("key-%d", i)] = i
		}
		assertMatchesReference(t, "fleetComp/"+name, fc)

		cc := &cacheComp{cache: map[string][]byte{}}
		grow(&cc.LeakStore)
		for i := 0; i < 64; i++ {
			cc.cache[fmt.Sprintf("entry-%d", i)] = make([]byte, 4<<10)
		}
		assertMatchesReference(t, "cacheComp/"+name, cc)
	}

	for i, s := range tpcwServlets(t) {
		assertMatchesReference(t, "tpcw/"+tpcw.Interactions[i], s)
	}
}

// tpcwServlets returns the TPC-W servlets of a small application, in
// tpcw.Interactions order, each holding a different leak.
func tpcwServlets(t *testing.T) []any {
	t.Helper()
	app, err := tpcw.NewApp(sqldb.NewDB(), aspect.NewWeaver(nil), nil, tpcw.Scale{Items: 60, Customers: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var out []any
	for i, name := range tpcw.Interactions {
		s, ok := app.Servlet(name)
		if !ok {
			t.Fatalf("no servlet %s", name)
		}
		s.(faultinject.Retainer).Retain(i * (40 << 10))
		out = append(out, s)
	}
	return out
}

// TestInTreeTargetsWalkWithoutAllocating: measuring the in-tree size
// targets one or two levels deep allocates nothing. A map whose entries
// are sized two levels deep is the exception (its iterator and entry
// copies allocate), so the map-bearing shapes are held at one level only.
func TestInTreeTargetsWalkWithoutAllocating(t *testing.T) {
	store := &faultinject.LeakStore{}
	store.Retain(300 << 10)
	fc := &fleetComp{cache: map[string]int{"a": 1, "b": 2}}
	fc.Retain(100 << 10)
	cc := &cacheComp{cache: map[string][]byte{"a": make([]byte, 4<<10)}}
	cc.Retain(100 << 10)
	servlets := tpcwServlets(t)
	check := func(p Policy, targets ...any) {
		t.Helper()
		sizer := New(p)
		for _, v := range targets {
			if allocs := testing.AllocsPerRun(50, func() { sizer.Of(v) }); allocs != 0 {
				t.Fatalf("%v walk of %T allocates %.1f objects", p, v, allocs)
			}
		}
	}
	check(OneLevel, append([]any{store, fc, cc}, servlets...)...)
	check(TwoLevel, append([]any{store}, servlets...)...)
}

// tree is the node type of the generated corpus: every kind the walker
// distinguishes, nested.
type tree struct {
	Name  string
	Kids  []*tree
	Attrs map[string][]byte
	Any   any
	Arr   [2][]int32
	Next  *tree
	Bytes []byte
}

// corpus is a generated value graph: nested slices, maps, pointers,
// interfaces and arrays, with backing arrays and nodes shared between
// places (and so cycles).
type corpus struct{ v any }

func (corpus) Generate(r *rand.Rand, size int) reflect.Value {
	g := &gen{r: r}
	return reflect.ValueOf(corpus{g.any(2 + size%3)})
}

type gen struct {
	r     *rand.Rand
	bufs  [][]byte
	nodes []*tree
}

func (g *gen) bytes() []byte {
	if len(g.bufs) > 0 && g.r.Intn(3) == 0 {
		b := g.bufs[g.r.Intn(len(g.bufs))]
		return b[:g.r.Intn(len(b)+1)] // shares the backing array
	}
	switch g.r.Intn(4) {
	case 0:
		return nil
	case 1:
		return []byte{}
	}
	b := make([]byte, g.r.Intn(64), 64+g.r.Intn(64))
	g.bufs = append(g.bufs, b)
	return b
}

func (g *gen) node(depth int) *tree {
	if depth <= 0 || g.r.Intn(4) == 0 {
		if len(g.nodes) > 0 && g.r.Intn(2) == 0 {
			return g.nodes[g.r.Intn(len(g.nodes))]
		}
		return nil
	}
	t := &tree{Name: strings.Repeat("n", g.r.Intn(20))}
	g.nodes = append(g.nodes, t)
	for i := g.r.Intn(3); i > 0; i-- {
		t.Kids = append(t.Kids, g.node(depth-1))
	}
	if g.r.Intn(2) == 0 {
		t.Attrs = map[string][]byte{}
		for i := g.r.Intn(4); i > 0; i-- {
			t.Attrs[fmt.Sprint("a", i)] = g.bytes()
		}
	}
	t.Any = g.any(depth - 1)
	t.Arr = [2][]int32{make([]int32, g.r.Intn(5)), nil}
	t.Next = g.node(depth - 1)
	t.Bytes = g.bytes()
	return t
}

func (g *gen) any(depth int) any {
	switch g.r.Intn(11) {
	case 0:
		return nil
	case 1:
		return g.r.Int63()
	case 2:
		return strings.Repeat("s", g.r.Intn(30))
	case 3:
		return g.bytes()
	case 4:
		return g.node(depth)
	case 5:
		if n := g.node(depth); n != nil {
			return *n
		}
		return tree{}
	case 6:
		m := map[int32]any{}
		for i := g.r.Intn(4); i > 0; i-- {
			m[int32(i)] = g.any(depth - 1)
		}
		return m
	case 7:
		return [3]any{g.any(depth - 1), g.any(depth - 1), g.bytes()}
	case 8:
		return [][]byte{g.bytes(), g.bytes(), g.bytes()}
	case 9:
		m := map[[2]int32]int64{}
		for i := g.r.Intn(6); i > 0; i-- {
			m[[2]int32{int32(i), 1}] = int64(i)
		}
		return &m
	default:
		m := map[any]*tree{}
		for i := g.r.Intn(3); i > 0; i-- {
			m[i] = g.node(depth - 1)
			m[fmt.Sprint(i)] = g.node(depth - 1)
		}
		return m
	}
}

func TestDifferentialCorpus(t *testing.T) {
	f := func(c corpus) bool {
		for _, p := range policies {
			if got, want := New(p).Of(c.v), refOf(p, c.v); got != want {
				t.Logf("%v: walker = %d, reference = %d for %#v", p, got, want, c.v)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkOneLevelComponent measures one sampling-round walk of the
// benchmark fleet's component shape: a leak store plus a small map.
func BenchmarkOneLevelComponent(b *testing.B) {
	c := &fleetComp{cache: map[string]int{}}
	c.Retain(100 << 10)
	for k := 0; k < 8; k++ {
		c.cache[fmt.Sprintf("key%02d", k)] = k
	}
	s := New(OneLevel)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Of(c)
	}
}

func BenchmarkTransitiveSize(b *testing.B) {
	l := &leaky{leak: make([]byte, 1<<20)}
	s := New(Transitive)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Of(l)
	}
}

// ---------------------------------------------------------------------
// The reference walker: the package's reflect walker as it was before
// the one-level closed form and the inline visited set, unchanged except
// that Sizer.Of is refOf and Policy.depth is refDepth. The differential
// tests hold the current walker to it byte for byte.

func refDepth(p Policy) int {
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

// walkerPool recycles the cycle-detection state between measurements.
// The sampling round measures every instrumented component once per
// round, forever; allocating a fresh visited table per measurement was
// the last steady-state garbage on that path. Entries are cleared on
// put, which keeps the map's buckets.
var walkerPool = sync.Pool{
	New: func() any { return &walker{visited: make(map[visit]bool)} },
}

// Of returns the estimated retained size of v in bytes under the sizer's
// policy. A nil value measures zero.
func refOf(p Policy, v any) int64 {
	if v == nil {
		return 0
	}
	w := walkerPool.Get().(*walker)
	defer func() {
		clear(w.visited)
		walkerPool.Put(w)
	}()
	rv := reflect.ValueOf(v)
	// The interface passed in is a transparency device, not part of the
	// object: measuring starts at the dynamic value without charging an
	// indirection level. Likewise, root pointers dereference for free —
	// a Go pointer to the component is how the caller names the object
	// under monitoring, just as a Java reference names the monitored
	// object — so the policy budget applies to the object's own
	// references, matching the paper's semantics.
	var total int64
	depth := refDepth(p)
	for rv.Kind() == reflect.Pointer && !rv.IsNil() {
		total += int64(rv.Type().Size())
		if !w.mark(rv.Pointer(), rv.Type().Elem()) {
			return total
		}
		rv = rv.Elem()
	}
	return total + w.size(rv, depth)
}

// visit identifies an already-counted referenced region so shared and
// cyclic structures are counted once.
type visit struct {
	ptr uintptr
	typ reflect.Type
}

type walker struct {
	visited map[visit]bool
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
		if v.IsNil() || depth <= 0 {
			return 0
		}
		if !w.mark(v.Pointer(), v.Type().Elem()) {
			return 0
		}
		return w.size(v.Elem(), depth-1)

	case reflect.String:
		if depth <= 0 {
			return 0
		}
		return int64(v.Len())

	case reflect.Slice:
		if v.IsNil() || depth <= 0 {
			return 0
		}
		if v.Cap() > 0 && !w.mark(v.Pointer(), v.Type().Elem()) {
			return 0
		}
		elemType := v.Type().Elem()
		// The backing array is charged for its full capacity; element
		// payloads beyond len are unreachable and counted inline only.
		sum := int64(elemType.Size()) * int64(v.Cap())
		// Skip the reflective element walk entirely for pointer-free
		// element types (e.g. the flat []byte leak buffers): nothing
		// beyond the backing array can be reachable through them, and a
		// megabyte buffer must not cost a million reflect calls.
		if hasIndirections(elemType) {
			for i := 0; i < v.Len(); i++ {
				sum += w.indirect(v.Index(i), depth-1)
			}
		}
		return sum

	case reflect.Map:
		if v.IsNil() || depth <= 0 {
			return 0
		}
		if !w.mark(v.Pointer(), v.Type()) {
			return 0
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
		if v.IsNil() || depth <= 0 {
			return 0
		}
		return w.size(v.Elem(), depth-1)

	default:
		// Chans, funcs and unsafe pointers are opaque: header only.
		return 0
	}
}

func (w *walker) mark(ptr uintptr, typ reflect.Type) bool {
	key := visit{ptr: ptr, typ: typ}
	if w.visited[key] {
		return false
	}
	w.visited[key] = true
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
	// Mark in-progress types as false to terminate recursive types; the
	// final value overwrites it below.
	indirCache.Store(t, false)
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
