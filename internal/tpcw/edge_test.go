package tpcw

import (
	"cmp"
	"errors"
	"maps"
	"slices"
	"sort"
	"testing"

	"repro/internal/aspect"
	"repro/internal/servlet"
	"repro/internal/sim"
	"repro/internal/sqldb"
)

func newDAOFixture(t *testing.T) (*sqldb.Pool, *App) {
	t.Helper()
	db := sqldb.NewDB()
	w := aspect.NewWeaver(nil)
	app, err := NewApp(db, w, nil, Scale{Items: 60, Customers: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return sqldb.NewPool(db, 2), app
}

func TestCatalogDAOEdges(t *testing.T) {
	pool, app := newDAOFixture(t)
	conn := pool.Acquire()
	defer pool.Release(conn)

	if _, err := app.Catalog.ItemByID(conn, 99999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing item err = %v", err)
	}
	if _, err := app.Catalog.Search(conn, "isbn", "x"); err == nil {
		t.Fatal("unknown search field accepted")
	}
	// Subject with no items yields an empty (not error) result.
	items, err := app.Catalog.NewProducts(conn, "NO-SUCH-SUBJECT")
	if err != nil || len(items) != 0 {
		t.Fatalf("empty subject = %v, %v", items, err)
	}
	// Best sellers respect the subject filter.
	arts, err := app.Catalog.BestSellers(conn, "ARTS")
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range arts {
		if it.Subject != "ARTS" {
			t.Fatalf("best seller with wrong subject: %+v", it)
		}
	}
}

func TestBestSellersEmptyOrderHistory(t *testing.T) {
	db := sqldb.NewDB()
	if err := CreateSchema(db); err != nil {
		t.Fatal(err)
	}
	w := aspect.NewWeaver(nil)
	dao := NewCatalogDAO(w)
	pool := sqldb.NewPool(db, 1)
	conn := pool.Acquire()
	defer pool.Release(conn)
	items, err := dao.BestSellers(conn, "")
	if err != nil || items != nil {
		t.Fatalf("empty history best sellers = %v, %v", items, err)
	}
}

func TestCustomerDAOEdges(t *testing.T) {
	pool, app := newDAOFixture(t)
	conn := pool.Acquire()
	defer pool.Release(conn)

	if _, err := app.Customers.ByUname(conn, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing customer err = %v", err)
	}
	if _, err := app.Customers.ByID(conn, 99999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing id err = %v", err)
	}
	c, err := app.Customers.ByUname(conn, Uname(1))
	if err != nil || c.ID != 1 {
		t.Fatalf("ByUname = %+v, %v", c, err)
	}
	id, err := app.Customers.Register(conn, "newuser01")
	if err != nil || id == 0 {
		t.Fatalf("Register = %d, %v", id, err)
	}
	got, err := app.Customers.ByID(conn, id)
	if err != nil || got.Uname != "newuser01" {
		t.Fatalf("registered lookup = %+v, %v", got, err)
	}
}

func TestOrderDAOEdges(t *testing.T) {
	pool, app := newDAOFixture(t)
	conn := pool.Acquire()
	defer pool.Release(conn)

	// A customer registered fresh has no orders.
	id, err := app.Customers.Register(conn, "freshbuyer")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := app.Orders.MostRecentByCustomer(conn, id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("no-orders err = %v", err)
	}
	// Creating an order decrements stock and restocks at zero.
	itemRow, _, err := conn.Get(TableItem, int64(1))
	if err != nil {
		t.Fatal(err)
	}
	before := itemRow[8].(int64)
	cart := &Cart{}
	cart.Add(1, before+1, 10) // force a restock (stock goes negative then +21)
	oid, err := app.Orders.Create(conn, id, cart, 100)
	if err != nil {
		t.Fatal(err)
	}
	after, _, _ := conn.Get(TableItem, int64(1))
	want := before - (before + 1) + 21
	if after[8].(int64) != want {
		t.Fatalf("restock: stock = %d, want %d", after[8].(int64), want)
	}
	order, lines, err := app.Orders.MostRecentByCustomer(conn, id)
	if err != nil || order.ID != oid || len(lines) != 1 {
		t.Fatalf("recent order = %+v, %d lines, %v", order, len(lines), err)
	}
	// The credit-card transaction row exists.
	xacts, err := conn.Select(TableCCXacts, sqldb.Where("cx_o_id", sqldb.Eq, oid))
	if err != nil || len(xacts) != 1 {
		t.Fatalf("cc_xacts = %d, %v", len(xacts), err)
	}
}

func TestPromoSvcMissingAnchor(t *testing.T) {
	pool, app := newDAOFixture(t)
	conn := pool.Acquire()
	defer pool.Release(conn)
	items, err := app.Promo.Related(conn, 99999)
	if err != nil || len(items) != 0 {
		t.Fatalf("missing anchor promo = %v, %v", items, err)
	}
}

func TestServletBaseHelpers(t *testing.T) {
	_, app := newDAOFixture(t)
	s, _ := app.Servlet(CompHome)
	home := s.(*homeServlet)

	// Sessionless cart is a throwaway.
	req := &servlet.Request{Interaction: CompHome}
	if c := home.cart(req); c == nil || !c.Empty() {
		t.Fatal("sessionless cart wrong")
	}
	if _, ok := home.customerID(req); ok {
		t.Fatal("sessionless customer found")
	}
	// Bad I_ID falls back to rotation.
	req.Params = map[string]string{"I_ID": "not-a-number"}
	if id := home.itemParam(req); id < 1 || id > 60 {
		t.Fatalf("fallback id = %d", id)
	}
	// Empty subject falls back to the first subject.
	if got := home.subjectParam(&servlet.Request{}); got != Subjects[0] {
		t.Fatalf("subject fallback = %q", got)
	}
}

func TestUnameStable(t *testing.T) {
	if Uname(7) != "user000007" {
		t.Fatalf("Uname = %q", Uname(7))
	}
}

// bruteForceBestSellers is the reference for CatalogDAO.BestSellers,
// computed from unfiltered selects only: quantities sold over the latest
// bestSellerWindow orders, by item; items still in the catalogue and, when
// a subject is given, of that subject; ranked sold desc, id asc; first 50.
func bruteForceBestSellers(t *testing.T, conn *sqldb.Conn, subject string) []int64 {
	t.Helper()
	all := func(table string) []sqldb.Row {
		rows, err := conn.Select(table, sqldb.Query{})
		if err != nil {
			t.Fatal(err)
		}
		return slices.Clone(rows) // the next Select reuses the connection's buffers
	}
	var latest int64
	for _, o := range all(TableOrders) {
		latest = max(latest, o[0].(int64))
	}
	sold := map[int64]int64{}
	for _, l := range all(TableOrderLine) {
		if l[1].(int64) > latest-bestSellerWindow {
			sold[l[2].(int64)] += l[3].(int64)
		}
	}
	ids := []int64{}
	for _, it := range all(TableItem) {
		id := it[0].(int64)
		if _, ok := sold[id]; ok && (subject == "" || it[4].(string) == subject) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		if sold[ids[i]] != sold[ids[j]] {
			return sold[ids[i]] > sold[ids[j]]
		}
		return ids[i] < ids[j]
	})
	return ids[:min(len(ids), 50)]
}

// TestBestSellersMatchesBruteForceBeyondWindow grows orders past the
// best-seller window, so that the window really excludes rows — no
// workload or other test gets that far — and compares the DAO with the
// brute force for a subject that sells, for no subject, for a subject
// whose only sales lie outside the window, and with a sold item deleted
// from the catalogue.
func TestBestSellersMatchesBruteForceBeyondWindow(t *testing.T) {
	pool, app := newDAOFixture(t)
	conn := pool.Acquire()
	defer pool.Release(conn)

	items, err := conn.Select(TableItem, sqldb.Query{})
	if err != nil {
		t.Fatal(err)
	}
	bySubject := map[string][]int64{}
	for _, it := range items {
		bySubject[it[4].(string)] = append(bySubject[it[4].(string)], it[0].(int64))
	}
	// stale: the subject with the most items sells only before the window;
	// busy: the next largest sells throughout.
	subjects := slices.SortedFunc(maps.Keys(bySubject), func(a, b string) int {
		return cmp.Or(cmp.Compare(len(bySubject[b]), len(bySubject[a])), cmp.Compare(a, b))
	})
	stale, busy := subjects[0], subjects[1]

	lines, err := app.DB().Table(TableOrderLine)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture's historical orders stay; they too end up outside the
	// window.
	before := lines.Len()
	rng := sim.NewStream(99)
	const extra = 400 // orders beyond the window
	var cart Cart
	for n := int64(1); n <= bestSellerWindow+extra; n++ {
		cart.Lines = cart.Lines[:0]
		for k := 1 + rng.IntN(4); k > 0; k-- {
			id := int64(1 + rng.IntN(len(items)))
			if n > extra && slices.Contains(bySubject[stale], id) {
				continue // no sales of the stale subject inside the window
			}
			cart.Add(id, int64(1+rng.IntN(3)), 1)
		}
		if n <= extra {
			// Outside the window one stale item outsells everything; a DAO
			// that ignored the window would rank it first.
			cart.Add(bySubject[stale][0], 50, 1)
		}
		if cart.Empty() {
			cart.Add(bySubject[busy][0], 1, 1)
		}
		if _, err := app.Orders.Create(conn, 1, &cart, n); err != nil {
			t.Fatal(err)
		}
	}
	if lines.Len() <= before {
		t.Fatal("no order lines created")
	}
	// A best seller of the busy subject leaves the catalogue but stays in
	// order_line.
	top, err := app.Catalog.BestSellers(conn, busy)
	if err != nil || len(top) < 2 {
		t.Fatalf("best sellers of %s before the delete = %v, %v", busy, top, err)
	}
	deleted := top[0].ID
	if ok, err := conn.Delete(TableItem, deleted); err != nil || !ok {
		t.Fatalf("delete item %d: %v, %v", deleted, ok, err)
	}

	for _, subject := range []string{busy, "", stale, "NO-SUCH-SUBJECT"} {
		want := bruteForceBestSellers(t, conn, subject)
		got, err := app.Catalog.BestSellers(conn, subject)
		if err != nil {
			t.Fatal(err)
		}
		gotIDs := make([]int64, len(got))
		for i, it := range got {
			gotIDs[i] = it.ID
		}
		if !slices.Equal(gotIDs, want) {
			t.Errorf("BestSellers(%q) = %v, brute force says %v", subject, gotIDs, want)
		}
		if slices.Contains(gotIDs, deleted) {
			t.Errorf("BestSellers(%q) lists deleted item %d", subject, deleted)
		}
		switch subject {
		case busy, "":
			if len(want) == 0 {
				t.Errorf("oracle for %q is empty; the comparison proves nothing", subject)
			}
		default:
			if len(want) != 0 {
				t.Errorf("oracle for %q = %v, want no sales inside the window", subject, want)
			}
		}
	}
}

// TestBestSellersTallyEdges writes order lines past the servlets, which
// admit only positive quantities of catalogue items: lines of items whose
// ids lie past every id sold so far, below zero or past the tally's dense
// range; zero and negative quantities; an item whose lines sum to 0. Each
// such item with a line in the window ranks, as the brute force says.
// Calls alternate subjects on one connection, and between two rounds the
// window loses lines, so a tally that kept anything from an earlier call
// ranks differently from the brute force.
func TestBestSellersTallyEdges(t *testing.T) {
	pool, app := newDAOFixture(t)
	conn := pool.Acquire()
	defer pool.Release(conn)
	check := func(subject string) []int64 {
		t.Helper()
		want := bruteForceBestSellers(t, conn, subject)
		got, err := app.Catalog.BestSellers(conn, subject)
		if err != nil {
			t.Fatal(err)
		}
		gotIDs := make([]int64, len(got))
		for i, it := range got {
			gotIDs[i] = it.ID
		}
		if !slices.Equal(gotIDs, want) {
			t.Errorf("BestSellers(%q) = %v, brute force says %v", subject, gotIDs, want)
		}
		return want
	}
	check("") // the tally now spans the ids sold so far

	const edge = "EDGE" // a subject only the items below have
	far := int64(maxDenseID) << 1
	item, _, err := conn.Get(TableItem, int64(1))
	if err != nil {
		t.Fatal(err)
	}
	item = slices.Clone(item)
	item[4] = edge
	for _, id := range []int64{500, 501, 502, 503, 600, -7, far} {
		item[0] = id
		if _, err := conn.Insert(TableItem, item); err != nil {
			t.Fatal(err)
		}
	}
	latest, err := conn.Select(TableOrders, sqldb.Query{}.Ordered("o_id", true).Limited(1))
	if err != nil || len(latest) == 0 {
		t.Fatalf("latest order: %v, %v", latest, err)
	}
	oid := latest[0][0].(int64)
	line := func(itemID, qty int64) any {
		t.Helper()
		key, err := conn.Insert(TableOrderLine, sqldb.Row{nil, oid, itemID, qty, 0.0})
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	big := line(500, 1000) // 500 sells 1500 and outranks far's 999 ...
	line(500, 500)
	line(far, 999)
	line(501, 3) // 501 and -7 sum to 0
	line(501, -3)
	line(-7, 1)
	line(-7, -1)
	zero := line(502, 0)
	line(503, -2) // 600 has no line
	if got, want := check(edge), []int64{500, far, -7, 501, 502, 503}; !slices.Equal(got, want) {
		t.Fatalf("oracle for %q = %v, want %v", edge, got, want)
	}
	check(Subjects[0])
	check("")

	// ... until its 1000 goes; 502 loses its only line.
	for _, key := range []any{big, zero} {
		if ok, err := conn.Delete(TableOrderLine, key); err != nil || !ok {
			t.Fatalf("delete line %v: %v, %v", key, ok, err)
		}
	}
	if got, want := check(edge), []int64{far, 500, -7, 501, 503}; !slices.Equal(got, want) {
		t.Fatalf("oracle for %q after the deletes = %v, want %v", edge, got, want)
	}
	check(Subjects[0])
	check("")
}
