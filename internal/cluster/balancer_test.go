package cluster

import (
	"fmt"
	"testing"

	"repro/internal/servlet"
)

// stubBackend records submissions and completes them synchronously.
type stubBackend struct {
	name string
	hits int
}

func (s *stubBackend) Submit(req *servlet.Request, done servlet.Completion) {
	s.hits++
	if done != nil {
		done(req, &servlet.Response{Status: servlet.StatusOK})
	}
}

func (s *stubBackend) Throughput() float64 { return float64(s.hits) }

func reqFor(session string) *servlet.Request {
	return &servlet.Request{Interaction: "home", SessionID: session}
}

func threeNodeBalancer() (*Balancer, map[string]*stubBackend) {
	b := NewBalancer()
	backends := make(map[string]*stubBackend)
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("node%d", i)
		be := &stubBackend{name: name}
		backends[name] = be
		b.AddNode(name, be, 1)
	}
	return b, backends
}

func TestBalancerRoundRobinSpreadsSessions(t *testing.T) {
	b, backends := threeNodeBalancer()
	var order []string
	for i := 0; i < 9; i++ {
		sid := fmt.Sprintf("s%d", i)
		b.Submit(reqFor(sid), nil)
		order = append(order, b.sessions[sid].name)
	}
	for name, be := range backends {
		if be.hits != 3 {
			t.Fatalf("%s got %d requests, want 3 (assignments %v)", name, be.hits, b.Assignments())
		}
	}
	// The order, not just the counts: the scenario matrix's bytes depend
	// on which node each new session lands on.
	want := []string{"node1", "node2", "node3", "node1", "node2", "node3"}
	if got := fmt.Sprint(order[:6]); got != fmt.Sprint(want) {
		t.Fatalf("rotation %s, want %v", got, want)
	}

	// A draining node drops out of the rotation; the rest keep its order.
	b, _ = threeNodeBalancer()
	b.Drain("node2")
	order = order[:0]
	for i := 0; i < 4; i++ {
		sid := fmt.Sprintf("s%d", i)
		b.Submit(reqFor(sid), nil)
		order = append(order, b.sessions[sid].name)
	}
	want = []string{"node1", "node3", "node1", "node3"}
	if got := fmt.Sprint(order); got != fmt.Sprint(want) {
		t.Fatalf("rotation with node2 draining %s, want %v", got, want)
	}
}

func TestBalancerSessionsAreSticky(t *testing.T) {
	b, backends := threeNodeBalancer()
	for i := 0; i < 12; i++ {
		b.Submit(reqFor("one-session"), nil)
	}
	var nonZero int
	for _, be := range backends {
		if be.hits > 0 {
			nonZero++
			if be.hits != 12 {
				t.Fatalf("sticky session split: %v", b.Assignments())
			}
		}
	}
	if nonZero != 1 {
		t.Fatalf("session touched %d nodes", nonZero)
	}
}

func TestBalancerWeightedSkewsTraffic(t *testing.T) {
	b, backends := threeNodeBalancer()
	b.SetWeights(map[string]int{"node1": 8, "node2": 1, "node3": 1})
	for i := 0; i < 100; i++ {
		b.Submit(reqFor(fmt.Sprintf("s%d", i)), nil)
	}
	if h := backends["node1"].hits; h != 80 {
		t.Fatalf("weighted node1 got %d/100, want 80", h)
	}
}

func TestBalancerRemoveNodeUnpinsAndRebalanceClears(t *testing.T) {
	b, backends := threeNodeBalancer()
	for i := 0; i < 6; i++ {
		b.Submit(reqFor(fmt.Sprintf("s%d", i)), nil)
	}
	if !b.RemoveNode("node2") {
		t.Fatal("node2 not removed")
	}
	if b.RemoveNode("node2") {
		t.Fatal("second removal succeeded")
	}
	before := backends["node2"].hits
	for i := 0; i < 6; i++ {
		b.Submit(reqFor(fmt.Sprintf("s%d", i)), nil)
	}
	if backends["node2"].hits != before {
		t.Fatal("removed node still receives traffic")
	}
	b.Rebalance()
	if n := len(b.Assignments()); n != 2 {
		t.Fatalf("assignments over %d nodes after rebalance", n)
	}
	for node, pins := range b.Assignments() {
		if pins != 0 {
			t.Fatalf("%s still pinned %d sessions after Rebalance", node, pins)
		}
	}
}

func TestBalancerEmptyPoolRejects(t *testing.T) {
	b := NewBalancer()
	var status int
	b.Submit(reqFor("s"), func(_ *servlet.Request, resp *servlet.Response) {
		status = resp.Status
	})
	if status != servlet.StatusUnavailable {
		t.Fatalf("status=%d, want 503", status)
	}
}

func TestBalancerThroughputSums(t *testing.T) {
	b, _ := threeNodeBalancer()
	for i := 0; i < 9; i++ {
		b.Submit(reqFor(fmt.Sprintf("s%d", i)), nil)
	}
	if got := b.Throughput(); got != 9 {
		t.Fatalf("throughput=%v, want 9", got)
	}
	if got := b.Spread(); len(got) != 3 {
		t.Fatalf("spread=%v", got)
	}
}

// TestBalancerRemoveNodeEvictsStaleSessions is the regression pin for
// sticky-session eviction: after RemoveNode, a session that was pinned to
// the removed member must be re-assigned to a live node on its next
// request — not routed into the void or left pointing at freed state.
func TestBalancerRemoveNodeEvictsStaleSessions(t *testing.T) {
	b, backends := threeNodeBalancer()
	sessions := []string{"s0", "s1", "s2", "s3", "s4", "s5"}
	for _, s := range sessions {
		b.Submit(reqFor(s), nil)
	}
	// Find the sessions node2 owns before it goes away.
	owned := map[string]bool{}
	for _, s := range sessions {
		pre := backends["node2"].hits
		b.Submit(reqFor(s), nil)
		if backends["node2"].hits > pre {
			owned[s] = true
		}
	}
	if len(owned) == 0 {
		t.Fatal("no sessions pinned to node2; test setup broken")
	}
	if !b.RemoveNode("node2") {
		t.Fatal("node2 not removed")
	}
	if got := b.PinnedSessions("node2"); got != 0 {
		t.Fatalf("%d sessions still pinned to the removed node", got)
	}
	for s := range owned {
		var status int
		b.Submit(reqFor(s), func(_ *servlet.Request, resp *servlet.Response) {
			status = resp.Status
		})
		if status != servlet.StatusOK {
			t.Fatalf("session %s got status %d after its node was removed", s, status)
		}
	}
	// The evicted sessions re-pinned onto survivors only, and the removed
	// backend saw none of the re-homed traffic.
	if pins := b.Assignments()["node2"]; pins != 0 {
		t.Fatalf("removed node re-acquired %d sessions", pins)
	}
	if backends["node2"].hits != 2*len(owned) {
		t.Fatalf("removed backend hits = %d, want the pre-removal %d", backends["node2"].hits, 2*len(owned))
	}
}

// TestBalancerDrainStopsNewSessionsKeepsSticky pins the drain contract:
// no new sticky assignments land on a draining member, but sessions it
// already owns keep routing to it until CompleteDrain.
func TestBalancerDrainStopsNewSessionsKeepsSticky(t *testing.T) {
	b, backends := threeNodeBalancer()
	for i := 0; i < 6; i++ {
		b.Submit(reqFor(fmt.Sprintf("s%d", i)), nil)
	}
	if !b.Drain("node2") {
		t.Fatal("drain refused")
	}
	if !b.Draining("node2") {
		t.Fatal("node2 not reported draining")
	}
	stuck := b.PinnedSessions("node2")
	if stuck == 0 {
		t.Fatal("no sessions pinned to node2; test setup broken")
	}
	// New sessions avoid the draining node...
	before := backends["node2"].hits
	for i := 0; i < 9; i++ {
		b.Submit(reqFor(fmt.Sprintf("new%d", i)), nil)
	}
	if backends["node2"].hits != before {
		t.Fatalf("draining node got %d new requests", backends["node2"].hits-before)
	}
	// ...but existing sessions stay sticky to it: re-submitting all six
	// original sessions must land node2 exactly its pinned share again.
	for i := 0; i < 6; i++ {
		b.Submit(reqFor(fmt.Sprintf("s%d", i)), nil)
	}
	if got := backends["node2"].hits - before; got != stuck {
		t.Fatalf("draining node got %d sticky requests, want %d", got, stuck)
	}
	// CompleteDrain unpins; the sessions re-home on their next request.
	if got := b.CompleteDrain("node2"); got != stuck {
		t.Fatalf("CompleteDrain unpinned %d, want %d", got, stuck)
	}
	if got := b.PinnedSessions("node2"); got != 0 {
		t.Fatalf("%d sessions still pinned after CompleteDrain", got)
	}
	before = backends["node2"].hits
	for i := 0; i < 6; i++ {
		b.Submit(reqFor(fmt.Sprintf("s%d", i)), nil)
	}
	if backends["node2"].hits != before {
		t.Fatal("drained node still receives re-homed sessions")
	}
}

// TestBalancerReadmitRestoresRotation pins the probation re-entry path:
// a re-admitted node takes new traffic again at the given weight.
func TestBalancerReadmitRestoresRotation(t *testing.T) {
	b, backends := threeNodeBalancer()
	b.SetWeights(map[string]int{"node1": 1, "node2": 1, "node3": 1})
	b.Drain("node2")
	b.CompleteDrain("node2")
	if !b.Readmit("node2", 2) {
		t.Fatal("readmit refused")
	}
	if b.Draining("node2") {
		t.Fatal("node2 still draining after readmit")
	}
	for i := 0; i < 100; i++ {
		b.Submit(reqFor(fmt.Sprintf("r%d", i)), nil)
	}
	if h := backends["node2"].hits; h != 50 {
		t.Fatalf("re-admitted node2 got %d/100 at weight 2 of 4, want 50", h)
	}
}

// TestBalancerAllDrainingStillRoutes pins the safety valve: draining
// every member must not turn the balancer into a 503 wall — a drain
// steers sessions, it never refuses service.
func TestBalancerAllDrainingStillRoutes(t *testing.T) {
	b, _ := threeNodeBalancer()
	for _, n := range []string{"node1", "node2", "node3"} {
		b.Drain(n)
	}
	var status int
	b.Submit(reqFor("s"), func(_ *servlet.Request, resp *servlet.Response) {
		status = resp.Status
	})
	if status != servlet.StatusOK {
		t.Fatalf("all-draining pool returned %d, want 200", status)
	}
}
