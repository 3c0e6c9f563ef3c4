package eb

import (
	"strconv"

	"repro/internal/servlet"
	"repro/internal/sim"
	"repro/internal/tpcw"
)

// This file holds the emulated browsers' state: a struct-of-arrays session
// table over a compiled (integer-indexed) transition matrix, the one
// representation behind the paper's 200 EBs and the load tier's 10^6. A
// slot is ~60 bytes flat across a handful of parallel arrays, draws from an
// 8-byte value-type Rand64, and shares one ZipfTable and one uname
// vocabulary across every session, so populating a million sessions costs
// megabytes and driving them costs zero allocations.
//
// Behavioural contract: a slot walks the fourteen-interaction graph and
// fabricates request parameters the way the TPC-W remote browser emulator
// does — Zipf-skewed item picks with page-link affinity, subject and
// search-term vocabularies, an assigned customer identity. Sequences are a
// pure function of (seed, session id) and the mixes the schedule puts the
// session through, never of shard count or slot, which is what
// the shards=1 vs shards=N golden tests pin.

// searchTerms is the vocabulary EBs search with; "Book" matches broadly,
// the others narrow (every populated title contains "Book Title <n>" and a
// subject word).
var searchTerms = []string{"Book", "Title", "COMPUTERS", "HISTORY", "ROMANCE", "1"}

// authorTerms is the author-search vocabulary, precomputed so the issue
// loop never formats a term string per request.
var authorTerms = func() [20]string {
	var out [20]string
	for i := range out {
		out[i] = "AuthorL" + strconv.Itoa(i+1)
	}
	return out
}()

// interCount is the number of TPC-W interactions (indices into
// tpcw.Interactions).
const interCount = 14

// interIndex maps interaction names to their stable index.
var interIndex = func() map[string]uint8 {
	m := make(map[string]uint8, len(tpcw.Interactions))
	for i, name := range tpcw.Interactions {
		m[name] = uint8(i)
	}
	if len(m) != interCount {
		panic("eb: interaction count drifted")
	}
	return m
}()

// compiledRow is one matrix row in integer form: cumulative weights over
// target indices, so a transition is one uniform draw and a short scan.
type compiledRow struct {
	to  []uint8
	cum []float64 // cumulative; cum[len-1] is the row total
}

// compiledMatrix is a Matrix resolved to interaction indices, built once
// per mix and shared by every session.
type compiledMatrix struct {
	rows [interCount]compiledRow
}

// compileMatrix validates and lowers a transition matrix. Rows absent from
// the source matrix stay empty; transitions out of them fall back to home.
func compileMatrix(m Matrix) *compiledMatrix {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	cm := &compiledMatrix{}
	for from, row := range m {
		fi := interIndex[from]
		cr := compiledRow{
			to:  make([]uint8, len(row)),
			cum: make([]float64, len(row)),
		}
		var total float64
		for i, tr := range row {
			cr.to[i] = interIndex[tr.To]
			total += tr.Weight
			cr.cum[i] = total
		}
		cm.rows[fi] = cr
	}
	return cm
}

// next picks the successor of interaction cur using one uniform draw.
func (cm *compiledMatrix) next(cur uint8, u float64) uint8 {
	row := &cm.rows[cur]
	if len(row.to) == 0 {
		return interIndex[tpcw.CompHome]
	}
	x := u * row.cum[len(row.cum)-1]
	for i, c := range row.cum {
		if x < c {
			return row.to[i]
		}
	}
	return row.to[len(row.to)-1]
}

// maxPageLinks bounds the page links a slot remembers (six covers every
// response the tpcw servlets emit and keeps the array inline).
const maxPageLinks = 6

// sessionTable is the struct-of-arrays browser state for one shard's
// sessions. Index = slot; a slot is one session for the whole run.
type sessionTable struct {
	// Per-table collaborators, shared across slots. The driver swaps
	// matrix when a phase changes the mix: sessions pick the new one up on
	// their next transition, so no session restarts.
	zipf   *sim.ZipfTable
	matrix *compiledMatrix
	unames []string // uname vocabulary, indexed by customer number

	// Per-slot state, parallel arrays.
	id        []int64 // global session id; -1 when the slot is idle
	rng       []sim.Rand64
	current   []uint8
	issued    []uint32
	failures  []uint32
	unameIdx  []int32
	lastItems [][maxPageLinks]int64
	lastN     []uint8

	// sessionID strings are built once, when the slot is added, so bind
	// and every request after it are allocation-free.
	sessionID []string

	seed uint64
}

// newSessionTable sizes a table for capacity slots.
func newSessionTable(capacity int, seed uint64, zipf *sim.ZipfTable, matrix *compiledMatrix, unames []string) *sessionTable {
	tb := &sessionTable{zipf: zipf, matrix: matrix, unames: unames, seed: seed}
	tb.grow(capacity)
	return tb
}

// grow extends the table to capacity idle slots, keeping the bound ones (a
// schedule whose peak exceeds the configured population).
func (tb *sessionTable) grow(capacity int) {
	from := len(tb.id)
	if capacity <= from {
		return
	}
	tb.id = grown(tb.id, capacity)
	tb.rng = grown(tb.rng, capacity)
	tb.current = grown(tb.current, capacity)
	tb.issued = grown(tb.issued, capacity)
	tb.failures = grown(tb.failures, capacity)
	tb.unameIdx = grown(tb.unameIdx, capacity)
	tb.lastItems = grown(tb.lastItems, capacity)
	tb.lastN = grown(tb.lastN, capacity)
	tb.sessionID = grown(tb.sessionID, capacity)
	for i := from; i < capacity; i++ {
		tb.id[i] = -1
		tb.sessionID[i] = "ebs-" + strconv.Itoa(i)
	}
}

// grown returns s extended with zero values to length n. The copy is
// conditional because make directly followed by copy compiles to one call
// that clears the rest by hand: it would touch every page of a fresh
// million-slot array that make alone leaves to the OS's zero pages.
func grown[T any](s []T, n int) []T {
	out := make([]T, n)
	if len(s) > 0 {
		copy(out, s)
	}
	return out
}

// bind assigns a session id to a slot, deriving its stream and identity.
// All state a session draws from is a function of (seed, id) alone.
func (tb *sessionTable) bind(slot int, id int64) {
	tb.id[slot] = id
	tb.rng[slot] = sim.DeriveRand64(tb.seed, uint64(id)+1)
	tb.current[slot] = interIndex[tpcw.CompHome]
	tb.issued[slot] = 0
	tb.failures[slot] = 0
	tb.unameIdx[slot] = int32(id % int64(len(tb.unames)))
	tb.lastN[slot] = 0
}

// idle reports whether a slot is unbound.
func (tb *sessionTable) idle(slot int) bool { return tb.id[slot] < 0 }

// think draws the slot's next think time in seconds.
func (tb *sessionTable) think(slot int) float64 {
	return tb.rng[slot].TruncExp(ThinkMean.Seconds(), ThinkCap.Seconds())
}

// buildRequest advances the slot's walk and fabricates the request,
// borrowing from the servlet pool — the container (or ModelTarget)
// recycles it after completion. The first request of a session is always
// the home page; numeric ids stay typed (no strconv) and string values come
// from fixed vocabularies, so fabrication is allocation-free.
func (tb *sessionTable) buildRequest(slot int) *servlet.Request {
	rng := &tb.rng[slot]
	cur := tb.current[slot]
	if tb.issued[slot] > 0 {
		cur = tb.matrix.next(cur, rng.Float64())
		tb.current[slot] = cur
	}
	tb.issued[slot]++

	req := servlet.AcquireRequest()
	name := tpcw.Interactions[cur]
	req.Interaction = name
	req.SessionID = tb.sessionID[slot]

	switch name {
	case tpcw.CompHome, tpcw.CompProductDetail, tpcw.CompAdminRequest, tpcw.CompAdminConfirm:
		req.SetInt64Param("I_ID", tb.pickItem(slot))
	case tpcw.CompNewProducts, tpcw.CompBestSellers:
		req.SetParam("SUBJECT", tpcw.Subjects[rng.IntN(len(tpcw.Subjects))])
	case tpcw.CompSearchResults:
		if rng.Float64() < 0.8 {
			req.SetParam("FIELD", "title")
			req.SetParam("TERM", searchTerms[rng.IntN(len(searchTerms))])
		} else {
			req.SetParam("FIELD", "author")
			req.SetParam("TERM", authorTerms[rng.IntN(20)])
		}
	case tpcw.CompShoppingCart:
		req.SetParam("ACTION", "add")
		req.SetInt64Param("I_ID", tb.pickItem(slot))
		req.SetInt64Param("QTY", 1+int64(rng.IntN(3)))
	case tpcw.CompBuyRequest:
		// Returning customers log in; 20% register fresh accounts.
		if rng.Float64() < 0.8 {
			req.SetParam("UNAME", tb.unames[tb.unameIdx[slot]])
		}
	case tpcw.CompOrderDisplay:
		req.SetParam("UNAME", tb.unames[tb.unameIdx[slot]])
	}
	return req
}

// pickItem prefers a link from the last page, like a real user following
// it, and otherwise draws a Zipf-popular catalogue item.
func (tb *sessionTable) pickItem(slot int) int64 {
	rng := &tb.rng[slot]
	if n := int(tb.lastN[slot]); n > 0 && rng.Float64() < 0.7 {
		return tb.lastItems[slot][rng.IntN(n)]
	}
	return int64(tb.zipf.Next(rng.Float64()))
}

// observe feeds a response back: failures restart the walk at home, page
// links are copied inline for pickItem affinity (the response's buffer is
// recycled with it).
func (tb *sessionTable) observe(slot int, resp *servlet.Response) {
	if !resp.OK() {
		tb.failures[slot]++
		tb.current[slot] = interIndex[tpcw.CompHome]
		return
	}
	if ids := resp.ItemIDs(); len(ids) > 0 {
		n := len(ids)
		if n > maxPageLinks {
			n = maxPageLinks
		}
		copy(tb.lastItems[slot][:n], ids[:n])
		tb.lastN[slot] = uint8(n)
	}
}

// unameVocabulary precomputes the customer identity strings shared by all
// sessions.
func unameVocabulary(customers int) []string {
	out := make([]string, customers)
	for i := range out {
		out[i] = tpcw.Uname(i + 1)
	}
	return out
}
