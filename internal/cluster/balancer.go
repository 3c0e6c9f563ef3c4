package cluster

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/servlet"
)

// Backend is the surface the balancer forwards to — satisfied by
// *servlet.Container.
type Backend interface {
	Submit(req *servlet.Request, done servlet.Completion)
	Throughput() float64
}

// member is one balanced node.
type member struct {
	name     string
	backend  Backend
	weight   int
	current  int // smooth-WRR accumulator
	inflight int
	// draining: no new sticky assignments; existing sessions still route
	// here until CompleteDrain unpins them (or they go idle). Set by the
	// rejuvenation controller before a micro-reboot.
	draining bool
}

// Balancer fronts a set of servlet containers the way a load balancer
// fronts a cluster of application servers. Sessions are sticky: a
// session's first request picks a node by smooth weighted round-robin
// over the per-node weights (nginx's algorithm: a skewed weight vector
// concentrates traffic without starving anyone; equal weights rotate)
// and every later request follows it, because session state (carts,
// logins) lives in one node's container. It satisfies the eb package's driver target, so the
// existing emulated-browser load generator drives a whole cluster
// unchanged.
type Balancer struct {
	mu       sync.Mutex
	members  []*member
	sessions map[string]*member
}

// NewBalancer creates an empty balancer.
func NewBalancer() *Balancer {
	return &Balancer{sessions: make(map[string]*member)}
}

// AddNode adds a backend with the given weight (minimum 1). Adding a
// duplicate name replaces the backend.
func (b *Balancer) AddNode(name string, backend Backend, weight int) {
	if weight < 1 {
		weight = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, m := range b.members {
		if m.name == name {
			m.backend = backend
			m.weight = weight
			return
		}
	}
	b.members = append(b.members, &member{name: name, backend: backend, weight: weight})
}

// RemoveNode removes a node and unpins its sessions; their next request
// is assigned a fresh node (session state on the removed node is lost,
// as with a real backend failure). It reports whether the node was
// present.
func (b *Balancer) RemoveNode(name string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, m := range b.members {
		if m.name == name {
			b.members = append(b.members[:i], b.members[i+1:]...)
			for sid, owner := range b.sessions {
				if owner == m {
					delete(b.sessions, sid)
				}
			}
			return true
		}
	}
	return false
}

// Drain marks a node draining: pick() stops assigning new sessions to
// it, while already-pinned sessions keep routing there — session state
// (carts, logins) lives in the node's container, so draining honours it
// instead of severing it. It reports whether the node is present.
func (b *Balancer) Drain(name string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := b.byName(name)
	if m == nil {
		return false
	}
	m.draining = true
	return true
}

// CompleteDrain force-unpins the sessions still stuck to a draining
// node (their next request is assigned a fresh node; session state on
// the drained node is lost, as with RemoveNode) and returns how many
// were unpinned. The node stays draining until Readmit.
func (b *Balancer) CompleteDrain(name string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := b.byName(name)
	if m == nil {
		return 0
	}
	n := 0
	for sid, owner := range b.sessions {
		if owner == m {
			delete(b.sessions, sid)
			n++
		}
	}
	return n
}

// Readmit clears a node's draining state and sets its weight (minimum
// 1) — probation re-admits at reduced weight, a clean probation
// restores the full one. It reports whether the node is present.
func (b *Balancer) Readmit(name string, weight int) bool {
	if weight < 1 {
		weight = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	m := b.byName(name)
	if m == nil {
		return false
	}
	m.draining = false
	m.weight = weight
	return true
}

// Draining reports whether a node is currently draining.
func (b *Balancer) Draining(name string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := b.byName(name)
	return m != nil && m.draining
}

// PinnedSessions counts the sessions currently stuck to a node — the
// drain-progress signal the rejuvenation controller watches.
func (b *Balancer) PinnedSessions(name string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := b.byName(name)
	if m == nil {
		return 0
	}
	n := 0
	for _, owner := range b.sessions {
		if owner == m {
			n++
		}
	}
	return n
}

// Inflight reports a node's requests currently in its backend.
func (b *Balancer) Inflight(name string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := b.byName(name)
	if m == nil {
		return 0
	}
	return m.inflight
}

// byName finds a member. Caller holds b.mu.
func (b *Balancer) byName(name string) *member {
	for _, m := range b.members {
		if m.name == name {
			return m
		}
	}
	return nil
}

// SetWeights updates per-node weights; weights below 1 are ignored, as
// are unknown names, and missing names keep their weight.
func (b *Balancer) SetWeights(weights map[string]int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, m := range b.members {
		if w, ok := weights[m.name]; ok && w >= 1 {
			m.weight = w
		}
	}
}

// Rebalance unpins every session, so each session's next request is
// re-assigned by the current weights — how an operator drains traffic
// onto (or off) nodes mid-run. Session state does not move.
func (b *Balancer) Rebalance() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sessions = make(map[string]*member)
}

// Assignments returns how many sessions are currently pinned to each
// node.
func (b *Balancer) Assignments() map[string]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]int, len(b.members))
	for _, m := range b.members {
		out[m.name] = 0
	}
	for _, m := range b.sessions {
		out[m.name]++
	}
	return out
}

// Submit routes one request: sticky to its session's node when pinned,
// otherwise assigned by pick and pinned. With no members the request
// completes immediately with 503, like a balancer with an empty upstream
// pool.
func (b *Balancer) Submit(req *servlet.Request, done servlet.Completion) {
	b.mu.Lock()
	m := b.route(req.SessionID)
	if m == nil {
		b.mu.Unlock()
		if done != nil {
			done(req, &servlet.Response{Status: servlet.StatusUnavailable})
		}
		// The balancer owns a pooled request from Submit on, exactly like
		// the container it stands in for: end the borrow once the
		// completion has run.
		servlet.ReleaseRequest(req)
		return
	}
	m.inflight++
	// Snapshot the backend under the lock: AddNode may replace a
	// member's backend concurrently.
	backend := m.backend
	b.mu.Unlock()

	backend.Submit(req, func(req *servlet.Request, resp *servlet.Response) {
		b.mu.Lock()
		m.inflight--
		b.mu.Unlock()
		if done != nil {
			done(req, resp)
		}
	})
}

// route picks the member for a session, pinning new sessions. Caller
// holds b.mu.
func (b *Balancer) route(sessionID string) *member {
	if len(b.members) == 0 {
		return nil
	}
	if sessionID != "" {
		if m, ok := b.sessions[sessionID]; ok {
			return m
		}
	}
	m := b.pick()
	if sessionID != "" {
		b.sessions[sessionID] = m
	}
	return m
}

// pick selects a member by smooth weighted round-robin, skipping
// draining members. When every member is draining it routes anyway — a
// drain steers sessions away from a node, it never turns the balancer
// into a 503 wall. Caller holds b.mu.
func (b *Balancer) pick() *member {
	skipDraining := false
	for _, m := range b.members {
		if !m.draining {
			skipDraining = true
			break
		}
	}
	var total int
	var best *member
	for _, m := range b.members {
		if skipDraining && m.draining {
			continue
		}
		m.current += m.weight
		total += m.weight
		if best == nil || m.current > best.current {
			best = m
		}
	}
	best.current -= total
	return best
}

// Throughput sums the balanced backends' completion rates; it is what
// the driver's WIPS sampler reads.
func (b *Balancer) Throughput() float64 {
	b.mu.Lock()
	backends := make([]Backend, len(b.members))
	for i, m := range b.members {
		backends[i] = m.backend
	}
	b.mu.Unlock()
	var sum float64
	for _, be := range backends {
		sum += be.Throughput()
	}
	return sum
}

// Spread summarises the current pin distribution as "node=count" pairs in
// name order (observability for tests and reports).
func (b *Balancer) Spread() []string {
	counts := b.Assignments()
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = fmt.Sprintf("%s=%d", n, counts[n])
	}
	return out
}
