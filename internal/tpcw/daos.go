package tpcw

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/aspect"
	"repro/internal/sqldb"
)

// DAO component names. DAOs are woven components like servlets, so every
// request's component path includes the data-access components it crossed
// — the structure the Pinpoint-style baseline needs and the coupling the
// paper's related-work section discusses.
const (
	CompCatalogDAO  = "tpcw.dao.Catalog"
	CompCustomerDAO = "tpcw.dao.Customer"
	CompOrderDAO    = "tpcw.dao.Order"
	CompPromoSvc    = "tpcw.svc.Promo"
)

// ErrNotFound reports a missing entity.
var ErrNotFound = errors.New("tpcw: not found")

// bestSellerWindow is how many recent orders the best-sellers interaction
// aggregates over (TPC-W uses the latest 3333 orders).
const bestSellerWindow int64 = 3333

// weave wraps fn as a depth-1 woven component method.
func weave(w *aspect.Weaver, comp, method string, fn aspect.Func) func(args ...any) (any, error) {
	h := w.WeaveDepth(comp, method, fn)
	return func(args ...any) (any, error) { return h(1, args...) }
}

// daoScratch is the reusable result storage of the TPC-W DAOs, stashed on
// the database connection they execute through (one scratch per pooled
// connection, so its buffers warm up once and serve every request that
// later borrows the connection). Result slices and structs returned by
// DAO methods point into this scratch and follow the connection's borrow
// contract: they are valid until the next DAO call on the same
// connection. Inner (woven) DAO functions return pointers into the
// scratch, which keeps the any-typed advice boundary from boxing a fresh
// copy of every result.
type daoScratch struct {
	items   []Item
	ids     []int64
	sold    []soldCount // best-sellers tally by item id; see count
	far     map[int64]*soldCount
	touched []int64 // the ids with a line in the last window
	ranked  []soldItem
	subject string
	item    Item
	cust    Customer
	order   OrderWithLines
	id64    int64
}

// soldCount is one item's best-sellers tally: the quantity its window
// lines sum to, and whether it has any (nothing below the servlets keeps
// ol_qty positive, so the sum cannot tell).
type soldCount struct {
	n    int64
	seen bool
}

// maxDenseID bounds the item ids tallied in a slice (TPC-W's largest
// catalogue has a million items). An id outside [0, maxDenseID), which
// only a row written past the servlets carries, is tallied in a map.
const maxDenseID = 1 << 20

// count returns id's tally entry, growing the slice to it on demand.
func (sc *daoScratch) count(id int64) *soldCount {
	if uint64(id) >= maxDenseID {
		if sc.far[id] == nil {
			sc.far[id] = new(soldCount)
		}
		return sc.far[id]
	}
	if int(id) >= len(sc.sold) {
		sc.sold = append(sc.sold, make([]soldCount, int(id)+1-len(sc.sold))...)
	}
	return &sc.sold[id]
}

// soldItem is one best-sellers candidate: an item and the quantity of it
// the window's orders bought.
type soldItem struct{ id, sold int64 }

// OrderWithLines bundles an order and its lines — the result unit of
// OrderDAO.MostRecentByCustomer.
type OrderWithLines struct {
	Order Order
	Lines []OrderLine
}

// scratchFor returns the connection's DAO scratch, attaching one on first
// use.
func scratchFor(conn *sqldb.Conn) *daoScratch {
	if sc, ok := conn.Stash().(*daoScratch); ok {
		return sc
	}
	sc := &daoScratch{far: make(map[int64]*soldCount)}
	conn.SetStash(sc)
	return sc
}

// CatalogDAO reads the item catalogue.
type CatalogDAO struct {
	itemByID    func(args ...any) (any, error)
	newProducts func(args ...any) (any, error)
	bestSellers func(args ...any) (any, error)
	search      func(args ...any) (any, error)
}

// NewCatalogDAO weaves a catalogue DAO through w.
func NewCatalogDAO(w *aspect.Weaver) *CatalogDAO {
	d := &CatalogDAO{}
	d.itemByID = weave(w, CompCatalogDAO, "ItemByID", func(args ...any) (any, error) {
		conn, id := args[0].(*sqldb.Conn), args[1].(int64)
		row, ok, err := conn.Get(TableItem, id)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("%w: item %d", ErrNotFound, id)
		}
		sc := scratchFor(conn)
		sc.item = itemFromRow(row)
		return &sc.item, nil
	})
	d.newProducts = weave(w, CompCatalogDAO, "NewProducts", func(args ...any) (any, error) {
		conn, subject := args[0].(*sqldb.Conn), args[1].(string)
		rows, err := conn.Select(TableItem,
			sqldb.Where("i_subject", sqldb.Eq, subject).Ordered("i_pub_date", true).Limited(50))
		if err != nil {
			return nil, err
		}
		sc := scratchFor(conn)
		itemsFromRows(&sc.items, rows)
		return &sc.items, nil
	})
	d.bestSellers = weave(w, CompCatalogDAO, "BestSellers", func(args ...any) (any, error) {
		conn, subject := args[0].(*sqldb.Conn), args[1].(*string)
		return bestSellers(conn, *subject)
	})
	d.search = weave(w, CompCatalogDAO, "Search", func(args ...any) (any, error) {
		conn, field, term := args[0].(*sqldb.Conn), args[1].(string), args[2].(string)
		return searchItems(conn, field, term)
	})
	return d
}

// ItemByID fetches one item.
func (d *CatalogDAO) ItemByID(conn *sqldb.Conn, id int64) (Item, error) {
	v, err := d.itemByID(conn.Args2(conn, id)...)
	if err != nil {
		return Item{}, err
	}
	return *v.(*Item), nil
}

// NewProducts returns the newest items of a subject. The returned slice
// is borrowed from the connection's scratch: valid until the next DAO
// call on conn.
func (d *CatalogDAO) NewProducts(conn *sqldb.Conn, subject string) ([]Item, error) {
	v, err := d.newProducts(conn.Args2(conn, subject)...)
	if err != nil {
		return nil, err
	}
	return *v.(*[]Item), nil
}

// BestSellers aggregates recent order lines into the subject's top sellers
// — deliberately the most expensive interaction, as in TPC-W. The
// returned slice is borrowed (see NewProducts).
func (d *CatalogDAO) BestSellers(conn *sqldb.Conn, subject string) ([]Item, error) {
	// The subject crosses the any-typed advice boundary as a pointer into
	// the scratch, like the results do: boxing the string would allocate.
	sc := scratchFor(conn)
	sc.subject = subject
	v, err := d.bestSellers(conn.Args2(conn, &sc.subject)...)
	if err != nil {
		return nil, err
	}
	return *v.(*[]Item), nil
}

// Search finds items by "title" or "author" term. The returned slice is
// borrowed (see NewProducts).
func (d *CatalogDAO) Search(conn *sqldb.Conn, field, term string) ([]Item, error) {
	v, err := d.search(conn.Args3(conn, field, term)...)
	if err != nil {
		return nil, err
	}
	return *v.(*[]Item), nil
}

// itemsFromRows decodes rows into *dst, reusing its capacity.
func itemsFromRows(dst *[]Item, rows []sqldb.Row) {
	out := (*dst)[:0]
	for _, r := range rows {
		out = append(out, itemFromRow(r))
	}
	*dst = out
}

func bestSellers(conn *sqldb.Conn, subject string) (*[]Item, error) {
	sc := scratchFor(conn)
	sc.items = sc.items[:0]
	// Latest order id bounds the window.
	latest, err := conn.Select(TableOrders, sqldb.Query{}.Ordered("o_id", true).Limited(1))
	if err != nil {
		return nil, err
	}
	if len(latest) == 0 {
		return &sc.items, nil
	}
	minOrder := latest[0][0].(int64) - bestSellerWindow
	// Reset what the previous call tallied, and only that.
	for _, id := range sc.touched {
		*sc.count(id) = soldCount{}
	}
	sc.touched = sc.touched[:0]
	err = conn.Each(TableOrderLine, sqldb.Where("ol_o_id", sqldb.Gt, minOrder), func(l sqldb.Row) bool {
		id := l[2].(int64)
		c := sc.count(id)
		if !c.seen {
			c.seen = true
			sc.touched = append(sc.touched, id)
		}
		c.n += l[3].(int64)
		return true
	})
	if err != nil {
		return nil, err
	}
	// Rank only what can be shown: the subject's items that sold. Without
	// a subject that is everything that sold.
	ranked := sc.ranked[:0]
	if subject == "" {
		for _, id := range sc.touched {
			ranked = append(ranked, soldItem{id, sc.count(id).n})
		}
	} else {
		err = conn.Each(TableItem, sqldb.Where("i_subject", sqldb.Eq, subject), func(it sqldb.Row) bool {
			id := it[0].(int64)
			if c := sc.count(id); c.seen {
				ranked = append(ranked, soldItem{id, c.n})
			}
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	sc.ranked = ranked
	slices.SortFunc(ranked, func(a, b soldItem) int {
		return cmp.Or(cmp.Compare(b.sold, a.sold), cmp.Compare(a.id, b.id))
	})
	for _, s := range ranked {
		// Point reads reuse the connection's row buffer; itemFromRow copies
		// what it keeps before the next read.
		row, ok, err := conn.Get(TableItem, s.id)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue // sold, since deleted from the catalogue
		}
		sc.items = append(sc.items, itemFromRow(row))
		if len(sc.items) == 50 {
			break
		}
	}
	return &sc.items, nil
}

func searchItems(conn *sqldb.Conn, field, term string) (*[]Item, error) {
	sc := scratchFor(conn)
	switch field {
	case "title":
		rows, err := conn.Select(TableItem,
			sqldb.Where("i_title", sqldb.Contains, term).Limited(50))
		if err != nil {
			return nil, err
		}
		itemsFromRows(&sc.items, rows)
		return &sc.items, nil
	case "author":
		authors, err := conn.Select(TableAuthor,
			sqldb.Where("a_lname", sqldb.Contains, term).Limited(10))
		if err != nil {
			return nil, err
		}
		// The author rows live in the connection's select scratch, which
		// the per-author item queries below reuse — extract the ids first.
		ids := sc.ids[:0]
		for _, a := range authors {
			ids = append(ids, a[0].(int64))
		}
		sc.ids = ids
		sc.items = sc.items[:0]
		for _, aid := range ids {
			rows, err := conn.Select(TableItem,
				sqldb.Where("i_a_id", sqldb.Eq, aid).Limited(50))
			if err != nil {
				return nil, err
			}
			for _, r := range rows {
				sc.items = append(sc.items, itemFromRow(r))
			}
			if len(sc.items) >= 50 {
				sc.items = sc.items[:50]
				break
			}
		}
		return &sc.items, nil
	default:
		return nil, fmt.Errorf("tpcw: unknown search field %q", field)
	}
}

// CustomerDAO reads and writes customers.
type CustomerDAO struct {
	byUname  func(args ...any) (any, error)
	byID     func(args ...any) (any, error)
	register func(args ...any) (any, error)
}

// NewCustomerDAO weaves a customer DAO through w.
func NewCustomerDAO(w *aspect.Weaver) *CustomerDAO {
	d := &CustomerDAO{}
	d.byUname = weave(w, CompCustomerDAO, "ByUname", func(args ...any) (any, error) {
		conn, uname := args[0].(*sqldb.Conn), args[1].(string)
		rows, err := conn.Select(TableCustomer, sqldb.Where("c_uname", sqldb.Eq, uname).Limited(1))
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			return nil, fmt.Errorf("%w: customer %q", ErrNotFound, uname)
		}
		sc := scratchFor(conn)
		sc.cust = customerFromRow(rows[0])
		return &sc.cust, nil
	})
	d.byID = weave(w, CompCustomerDAO, "ByID", func(args ...any) (any, error) {
		conn, id := args[0].(*sqldb.Conn), args[1].(int64)
		row, ok, err := conn.Get(TableCustomer, id)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("%w: customer %d", ErrNotFound, id)
		}
		sc := scratchFor(conn)
		sc.cust = customerFromRow(row)
		return &sc.cust, nil
	})
	d.register = weave(w, CompCustomerDAO, "Register", func(args ...any) (any, error) {
		conn, uname := args[0].(*sqldb.Conn), args[1].(string)
		pk, err := conn.Insert(TableCustomer, sqldb.Row{
			nil, uname, "password", "New", "Customer", int64(1), int64(0), 0.0,
		})
		if err != nil {
			return nil, err
		}
		sc := scratchFor(conn)
		sc.id64 = pk.(int64)
		return &sc.id64, nil
	})
	return d
}

// ByUname fetches a customer by user name.
func (d *CustomerDAO) ByUname(conn *sqldb.Conn, uname string) (Customer, error) {
	v, err := d.byUname(conn.Args2(conn, uname)...)
	if err != nil {
		return Customer{}, err
	}
	return *v.(*Customer), nil
}

// ByID fetches a customer by id.
func (d *CustomerDAO) ByID(conn *sqldb.Conn, id int64) (Customer, error) {
	v, err := d.byID(conn.Args2(conn, id)...)
	if err != nil {
		return Customer{}, err
	}
	return *v.(*Customer), nil
}

// Register creates a new customer and returns its id.
func (d *CustomerDAO) Register(conn *sqldb.Conn, uname string) (int64, error) {
	v, err := d.register(conn.Args2(conn, uname)...)
	if err != nil {
		return 0, err
	}
	return *v.(*int64), nil
}

// OrderDAO reads and writes orders.
type OrderDAO struct {
	mostRecent func(args ...any) (any, error)
	create     func(args ...any) (any, error)
}

// NewOrderDAO weaves an order DAO through w.
func NewOrderDAO(w *aspect.Weaver) *OrderDAO {
	d := &OrderDAO{}
	d.mostRecent = weave(w, CompOrderDAO, "MostRecentByCustomer", func(args ...any) (any, error) {
		conn, cid := args[0].(*sqldb.Conn), args[1].(int64)
		rows, err := conn.Select(TableOrders,
			sqldb.Where("o_c_id", sqldb.Eq, cid).Ordered("o_date", true).Limited(1))
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			return nil, fmt.Errorf("%w: no orders for customer %d", ErrNotFound, cid)
		}
		sc := scratchFor(conn)
		sc.order.Order = orderFromRow(rows[0])
		lineRows, err := conn.Select(TableOrderLine, sqldb.Where("ol_o_id", sqldb.Eq, sc.order.Order.ID))
		if err != nil {
			return nil, err
		}
		lines := sc.order.Lines[:0]
		for _, r := range lineRows {
			lines = append(lines, orderLineFromRow(r))
		}
		sc.order.Lines = lines
		return &sc.order, nil
	})
	d.create = weave(w, CompOrderDAO, "Create", func(args ...any) (any, error) {
		conn := args[0].(*sqldb.Conn)
		cid := args[1].(int64)
		cart := args[2].(*Cart)
		date := args[3].(int64)
		oid, err := conn.Insert(TableOrders, sqldb.Row{nil, cid, date, cart.Total(), "PENDING"})
		if err != nil {
			return nil, err
		}
		for _, l := range cart.Lines {
			if _, err := conn.Insert(TableOrderLine,
				sqldb.Row{nil, oid.(int64), l.ItemID, l.Qty, 0.0}); err != nil {
				return nil, err
			}
			// Decrement stock, restocking when exhausted (TPC-W rule).
			row, ok, err := conn.Get(TableItem, l.ItemID)
			if err != nil || !ok {
				continue
			}
			stock := row[8].(int64) - l.Qty
			if stock < 0 {
				stock += 21
			}
			if err := conn.UpdateCol(TableItem, l.ItemID, "i_stock", stock); err != nil {
				return nil, err
			}
		}
		if _, err := conn.Insert(TableCCXacts,
			sqldb.Row{nil, oid.(int64), "VISA", cart.Total(), date}); err != nil {
			return nil, err
		}
		sc := scratchFor(conn)
		sc.id64 = oid.(int64)
		return &sc.id64, nil
	})
	return d
}

// MostRecentByCustomer returns the customer's latest order and its lines.
// The lines slice is borrowed from the connection's scratch: valid until
// the next DAO call on conn.
func (d *OrderDAO) MostRecentByCustomer(conn *sqldb.Conn, cid int64) (Order, []OrderLine, error) {
	v, err := d.mostRecent(conn.Args2(conn, cid)...)
	if err != nil {
		return Order{}, nil, err
	}
	res := v.(*OrderWithLines)
	return res.Order, res.Lines, nil
}

// Create persists the cart as a new order and returns the order id.
func (d *OrderDAO) Create(conn *sqldb.Conn, cid int64, cart *Cart, date int64) (int64, error) {
	v, err := d.create(conn.Args4(conn, cid, cart, date)...)
	if err != nil {
		return 0, err
	}
	return *v.(*int64), nil
}

// PromoSvc computes the promotional slate shown on the home and product
// pages. The home servlet always invokes it — the "coupled components"
// situation the paper argues Pinpoint cannot disentangle.
type PromoSvc struct {
	related func(args ...any) (any, error)
}

// NewPromoSvc weaves a promotion service through w.
func NewPromoSvc(w *aspect.Weaver) *PromoSvc {
	s := &PromoSvc{}
	s.related = weave(w, CompPromoSvc, "Related", func(args ...any) (any, error) {
		conn, itemID := args[0].(*sqldb.Conn), args[1].(int64)
		sc := scratchFor(conn)
		sc.items = sc.items[:0]
		row, ok, err := conn.Get(TableItem, itemID)
		if err != nil {
			return nil, err
		}
		if !ok {
			return &sc.items, nil
		}
		it := itemFromRow(row)
		for _, rid := range [2]int64{it.Related1, it.Related2} {
			rrow, ok, err := conn.Get(TableItem, rid)
			if err != nil {
				return nil, err
			}
			if ok {
				sc.items = append(sc.items, itemFromRow(rrow))
			}
		}
		return &sc.items, nil
	})
	return s
}

// Related returns the promotional items for the given anchor item. The
// returned slice is borrowed from the connection's scratch: valid until
// the next DAO call on conn.
func (s *PromoSvc) Related(conn *sqldb.Conn, itemID int64) ([]Item, error) {
	v, err := s.related(conn.Args2(conn, itemID)...)
	if err != nil {
		return nil, err
	}
	return *v.(*[]Item), nil
}
