// Package rejuv closes the detect → actuate loop the paper motivates:
// the aggregator names the aging (node, component) pair, and this
// controller acts on it with a surgical micro-reboot instead of a full
// restart. It subscribes to the aggregator's epoch verdicts and drives a
// per-node state machine
//
//	Healthy → Draining → Rejuvenating → Probation → Healthy
//
// through the cluster balancer (drain: stop new sticky assignments,
// honour pinned sessions until idle or deadline) and the cluster control
// channel (micro-reboot the named component, locally or over the wire's
// CONTROL frames).
//
// Safety invariants — a noisy detector can never take the cluster down:
//
//   - Hold-down with hysteresis: a node is drained only after its
//     component alarms HoldDownEpochs consecutive epochs; a flapping
//     alarm resets the count, and suppressed epochs (churn hold,
//     workload-shift guard) never accumulate.
//   - Concurrency cap: at most MaxConcurrent nodes are out of full
//     rotation (draining or rejuvenating) at once; further candidates
//     wait, still serving.
//   - Probation rollback: a re-admitted node serves at reduced weight
//     for ProbationEpochs; if the same component alarms again it rolls
//     back to Draining (a second micro-reboot) instead of flapping in
//     and out of rotation.
//   - Bounded control loss: a rejuvenate command that is neither acked
//     nor failed within RebootEpochs re-admits the node untouched (it
//     was healthy enough to serve) and backs off CooldownEpochs.
//   - Cluster-wide veto: a verdict flagging the component on a quorum
//     of nodes is never actuated — micro-rebooting every node at once
//     IS the outage the controller exists to prevent. It surfaces as a
//     notification for the operator instead.
//
// Concurrency contract: the controller runs on the aggregator's epoch
// delivery (one goroutine at a time, epoch order guaranteed), takes one
// mutex around its own state, and calls the balancer only under it (the
// balancer's mutex is a leaf). Control commands are sent after the state
// mutex is released; acks land back under it. Nothing here touches the
// request or recording paths — actuation rides the verdict plane only.
package rejuv

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/jmx"
)

// State is one node's position in the rejuvenation cycle.
type State uint8

// Node states.
const (
	Healthy State = iota
	Draining
	Rejuvenating
	Probation
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Draining:
		return "draining"
	case Rejuvenating:
		return "rejuvenating"
	case Probation:
		return "probation"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// MarshalText renders the state by name, so the JSON the management
// plane serves (Status, History) reads "draining", not 1.
func (s State) MarshalText() ([]byte, error) {
	return []byte(s.String()), nil
}

// NotifRejuvAction is emitted for every state-machine transition; Data
// carries the Event.
const NotifRejuvAction = "aging.rejuvenation.action"

// Config tunes the controller. All epoch counts are in cluster epochs
// (one per sampling round), so the loop is deterministic under the
// simulated clock at any time scale.
type Config struct {
	// HoldDownEpochs is how many consecutive alarming epochs a node's
	// component must accumulate before the node is drained (default 3).
	HoldDownEpochs int
	// MaxConcurrent caps nodes simultaneously out of full rotation —
	// draining or rejuvenating (default 1).
	MaxConcurrent int
	// DrainEpochs bounds the drain: after this many epochs any sessions
	// still pinned to the node are force-unpinned (default 2).
	DrainEpochs int
	// RebootEpochs bounds the wait for a rejuvenate ack; past it the
	// node is re-admitted un-rebooted and the loss counted (default 3).
	RebootEpochs int
	// ProbationEpochs is how long a re-admitted node serves at reduced
	// weight before being restored (default 6).
	ProbationEpochs int
	// ProbationWeight is the balancer weight during probation (default 1).
	ProbationWeight int
	// HealthyWeight is the weight restored after clean probation
	// (default 1, the weight every node registers at: a higher one
	// re-admits the node above its peers).
	HealthyWeight int
	// CooldownEpochs holds a node's hold-down counter at zero after a
	// completed cycle or a control loss (default 10).
	CooldownEpochs int
	// HistoryCap bounds the transition history ring (default 256).
	HistoryCap int
}

func (c Config) withDefaults() Config {
	if c.HoldDownEpochs <= 0 {
		c.HoldDownEpochs = 3
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 1
	}
	if c.DrainEpochs <= 0 {
		c.DrainEpochs = 2
	}
	if c.RebootEpochs <= 0 {
		c.RebootEpochs = 3
	}
	if c.ProbationEpochs <= 0 {
		c.ProbationEpochs = 6
	}
	if c.ProbationWeight <= 0 {
		c.ProbationWeight = 1
	}
	if c.HealthyWeight <= 0 {
		c.HealthyWeight = 1
	}
	if c.CooldownEpochs <= 0 {
		c.CooldownEpochs = 10
	}
	if c.HistoryCap <= 0 {
		c.HistoryCap = 256
	}
	return c
}

// Balancer is the traffic-steering surface the controller drives —
// satisfied by *cluster.Balancer.
type Balancer interface {
	Drain(node string) bool
	CompleteDrain(node string) int
	Readmit(node string, weight int) bool
	PinnedSessions(node string) int
	Inflight(node string) int
}

// CommandSender routes actuation commands to nodes — satisfied by
// *cluster.Aggregator (local handler bindings and wire CONTROL frames).
type CommandSender interface {
	SendControl(node string, kind cluster.ControlKind, component string, weight int, done func(cluster.ControlAck, error))
}

// DetectorReset clears a node's detection history after a micro-reboot —
// satisfied by *cluster.Aggregator.
type DetectorReset interface {
	ResetNode(node string) bool
}

// Event is one state-machine transition.
type Event struct {
	Epoch     int64
	Node      string
	Component string
	From, To  State
	Note      string
}

// NodeStatus is one node's current actuation state.
type NodeStatus struct {
	Node          string
	State         State
	Component     string // suspect component driving the current cycle
	Hold          int    // consecutive alarming epochs accumulated
	SinceEpoch    int64  // epoch of the last transition
	CooldownUntil int64  // hold-down frozen through this epoch
	Cycles        int64  // completed drain→reboot→probation→healthy cycles
	FreedBytes    int64  // bytes reclaimed by this node's last reboot
}

// Counters are the controller's cumulative actuation totals.
type Counters struct {
	Rejuvenations     int64 // acked micro-reboots
	FreedBytes        int64 // bytes reclaimed across them
	Rollbacks         int64 // probation → draining re-alarms
	ControlLost       int64 // rejuvenate commands failed or timed out
	ForcedDrains      int64 // drains that hit the deadline with sessions pinned
	ClusterWideVetoes int64 // cluster-wide verdicts withheld from actuation
}

// nodeFSM is one node's state-machine instance. All fields are guarded
// by the controller mutex.
type nodeFSM struct {
	name          string
	state         State
	suspect       string // component driving the current cycle
	hold          int
	since         int64 // epoch of the last transition
	cooldownUntil int64
	cycles        int64
	freed         int64
	// rejuvenate-ack landing zone (written by the SendControl callback)
	ackDone bool
	ackOK   bool
	ackErr  string
	ackFree int64
}

// Controller is the rejuvenation actuation controller. Create with New,
// feed with ObserveEpoch (usually via Aggregator.SubscribeEpochs).
type Controller struct {
	cfg   Config
	bal   Balancer
	ctl   CommandSender
	reset DetectorReset

	mu       sync.Mutex
	epoch    int64
	nodes    map[string]*nodeFSM
	order    []string
	history  []Event
	notifs   []jmx.Notification
	counters Counters
	cwSeen   map[string]bool // cluster-wide components already vetoed
}

// New creates a controller driving bal and ctl. Call SetDetectorReset to
// wire post-reboot detector resets (recommended: without it the old
// trend state keeps the alarm latched through probation).
func New(cfg Config, bal Balancer, ctl CommandSender) *Controller {
	return &Controller{
		cfg:    cfg.withDefaults(),
		bal:    bal,
		ctl:    ctl,
		nodes:  make(map[string]*nodeFSM),
		cwSeen: make(map[string]bool),
	}
}

// SetDetectorReset wires the detector-history reset applied after an
// acked micro-reboot.
func (c *Controller) SetDetectorReset(r DetectorReset) {
	c.mu.Lock()
	c.reset = r
	c.mu.Unlock()
}

// Track pre-registers nodes so Status lists them (as Healthy) before
// they ever alarm. Purely observational.
func (c *Controller) Track(nodes ...string) {
	c.mu.Lock()
	for _, n := range nodes {
		if n != "" {
			c.fsm(n)
		}
	}
	c.mu.Unlock()
}

// fsm returns (creating if needed) a node's state machine. Caller holds
// c.mu.
func (c *Controller) fsm(node string) *nodeFSM {
	n := c.nodes[node]
	if n == nil {
		n = &nodeFSM{name: node, state: Healthy}
		c.nodes[node] = n
		i := sort.SearchStrings(c.order, node)
		c.order = append(c.order, "")
		copy(c.order[i+1:], c.order[i:])
		c.order[i] = node
	}
	return n
}

// pendingCommand is one control send decided under the mutex and fired
// after it is released.
type pendingCommand struct {
	node, comp string
	kind       cluster.ControlKind
	weight     int
}

// ObserveEpoch advances every node's state machine by one cluster epoch.
// Wire it with Aggregator.SubscribeEpochs; epochs arrive in order, one
// at a time. Balancer calls run under the controller mutex (the
// balancer's own mutex is a leaf); control sends and detector resets run
// after it is released, so an in-process synchronous control handler can
// never deadlock against the controller.
func (c *Controller) ObserveEpoch(ev cluster.EpochEvent) {
	var sends []pendingCommand
	var resets []string

	c.mu.Lock()
	c.epoch = ev.Epoch

	// Index this epoch's node-local alarms: node → strongest alarming
	// component. Cluster-wide verdicts are vetoed from actuation — a
	// quorum of "sick" nodes means the workload or a shared dependency,
	// and mass micro-reboots ARE the outage — and surfaced once per
	// component instead. Verdicts arrive score-descending per resource,
	// so first sighting wins as the strongest suspect.
	alarms := make(map[string]string)
	cwNow := make(map[string]bool)
	for _, v := range ev.Verdicts {
		if v.ClusterWide {
			cwNow[v.Component] = true
			if !c.cwSeen[v.Component] {
				c.cwSeen[v.Component] = true
				c.counters.ClusterWideVetoes++
				c.notify(jmx.Notification{
					Type:   NotifRejuvAction,
					Source: Name(),
					Message: fmt.Sprintf("cluster-wide aging on %s (%d/%d nodes, epoch %d): rejuvenation withheld, operator action required",
						v.Component, len(v.Nodes), v.ActiveNodes, ev.Epoch),
					Data: v,
				})
			}
			continue
		}
		for _, node := range v.Nodes {
			if _, ok := alarms[node]; !ok {
				alarms[node] = v.Component
			}
		}
	}
	for comp := range c.cwSeen {
		if !cwNow[comp] {
			delete(c.cwSeen, comp)
		}
	}
	for node := range alarms {
		c.fsm(node)
	}

	busy := 0
	for _, n := range c.nodes {
		if n.state == Draining || n.state == Rejuvenating {
			busy++
		}
	}

	// Iterate in sorted name order so concurrent-candidate arbitration
	// (the MaxConcurrent cap) is deterministic.
	for _, name := range c.order {
		n := c.nodes[name]
		comp, alarming := alarms[name]
		switch n.state {
		case Healthy:
			if !alarming {
				n.hold, n.suspect = 0, ""
				break
			}
			if ev.Suppressed || ev.Epoch <= n.cooldownUntil {
				break // frozen, not reset: suppression is not evidence of health
			}
			if n.suspect != comp {
				n.suspect, n.hold = comp, 0
			}
			n.hold++
			if n.hold >= c.cfg.HoldDownEpochs && busy < c.cfg.MaxConcurrent {
				busy++
				c.bal.Drain(name)
				c.transition(n, Draining, comp,
					fmt.Sprintf("%s alarmed %d consecutive epochs; draining", comp, n.hold))
				sends = append(sends, pendingCommand{node: name, comp: comp, kind: cluster.ControlDrain})
			}
		case Draining:
			pinned := c.bal.PinnedSessions(name)
			inflight := c.bal.Inflight(name)
			switch {
			case pinned == 0 && inflight == 0:
				n.ackDone, n.ackOK, n.ackErr, n.ackFree = false, false, "", 0
				c.transition(n, Rejuvenating, n.suspect, "drained idle; micro-rebooting "+n.suspect)
				sends = append(sends, pendingCommand{node: name, comp: n.suspect, kind: cluster.ControlRejuvenate})
			case ev.Epoch-n.since >= int64(c.cfg.DrainEpochs):
				unpinned := c.bal.CompleteDrain(name)
				c.counters.ForcedDrains++
				n.ackDone, n.ackOK, n.ackErr, n.ackFree = false, false, "", 0
				c.transition(n, Rejuvenating, n.suspect,
					fmt.Sprintf("drain deadline after %d epochs; unpinned %d sessions; micro-rebooting %s",
						c.cfg.DrainEpochs, unpinned, n.suspect))
				sends = append(sends, pendingCommand{node: name, comp: n.suspect, kind: cluster.ControlRejuvenate})
			}
		case Rejuvenating:
			switch {
			case n.ackDone && n.ackOK:
				c.counters.Rejuvenations++
				c.counters.FreedBytes += n.ackFree
				n.freed = n.ackFree
				resets = append(resets, name)
				c.bal.Readmit(name, c.cfg.ProbationWeight)
				c.transition(n, Probation, n.suspect,
					fmt.Sprintf("micro-reboot freed %d bytes; probation at weight %d", n.ackFree, c.cfg.ProbationWeight))
			case n.ackDone && !n.ackOK, ev.Epoch-n.since >= int64(c.cfg.RebootEpochs):
				// Control lost (errored, refused, or no ack in time): the
				// node kept serving through the drain, so re-admitting it
				// un-rebooted is strictly safer than keeping it out on a
				// command that may never land.
				c.counters.ControlLost++
				n.cooldownUntil = ev.Epoch + int64(c.cfg.CooldownEpochs)
				c.bal.Readmit(name, c.cfg.ProbationWeight)
				why := fmt.Sprintf("no rejuvenate ack within %d epochs", c.cfg.RebootEpochs)
				if n.ackDone {
					why = "rejuvenate failed: " + n.ackErr
				}
				c.transition(n, Probation, n.suspect, why+"; re-admitted un-rebooted (control lost)")
			}
		case Probation:
			switch {
			case alarming && comp == n.suspect && !ev.Suppressed && ev.Epoch > n.since:
				if busy < c.cfg.MaxConcurrent {
					busy++
					c.counters.Rollbacks++
					c.bal.Drain(name)
					c.transition(n, Draining, comp, comp+" re-alarmed during probation; rolling back to drain")
					sends = append(sends, pendingCommand{node: name, comp: comp, kind: cluster.ControlDrain})
				}
			case ev.Epoch-n.since >= int64(c.cfg.ProbationEpochs):
				n.cycles++
				n.cooldownUntil = ev.Epoch + int64(c.cfg.CooldownEpochs)
				c.bal.Readmit(name, c.cfg.HealthyWeight)
				c.transition(n, Healthy, n.suspect,
					fmt.Sprintf("probation clean for %d epochs; re-admitted at weight %d", c.cfg.ProbationEpochs, c.cfg.HealthyWeight))
				sends = append(sends, pendingCommand{node: name, comp: "", kind: cluster.ControlReadmit, weight: c.cfg.HealthyWeight})
				n.suspect, n.hold = "", 0
			}
		}
	}
	c.mu.Unlock()

	for _, s := range sends {
		if s.kind == cluster.ControlRejuvenate {
			node := s.node
			c.ctl.SendControl(s.node, s.kind, s.comp, s.weight, func(ack cluster.ControlAck, err error) {
				c.mu.Lock()
				if n := c.nodes[node]; n != nil && n.state == Rejuvenating && !n.ackDone {
					n.ackDone = true
					n.ackOK = err == nil && ack.OK
					n.ackFree = ack.Freed
					switch {
					case err != nil:
						n.ackErr = err.Error()
					default:
						n.ackErr = ack.Err
					}
				}
				c.mu.Unlock()
			})
		} else {
			// Drain/re-admit are advisory to the node (the balancer state
			// lives cluster-side): fire and forget.
			c.ctl.SendControl(s.node, s.kind, s.comp, s.weight, nil)
		}
	}
	for _, node := range resets {
		c.mu.Lock()
		r := c.reset
		c.mu.Unlock()
		if r != nil {
			r.ResetNode(node)
		}
	}
}

// transition records a state change with its event and notification.
// Caller holds c.mu.
func (c *Controller) transition(n *nodeFSM, to State, comp, note string) {
	ev := Event{Epoch: c.epoch, Node: n.name, Component: comp, From: n.state, To: to, Note: note}
	n.state = to
	n.since = c.epoch
	c.history = append(c.history, ev)
	if over := len(c.history) - c.cfg.HistoryCap; over > 0 {
		c.history = append(c.history[:0], c.history[over:]...)
	}
	c.notify(jmx.Notification{
		Type:    NotifRejuvAction,
		Source:  Name(),
		Message: fmt.Sprintf("%s: %s → %s (epoch %d): %s", n.name, ev.From, ev.To, ev.Epoch, note),
		Data:    ev,
	})
}

// notify queues a notification for DrainNotifications. Caller holds c.mu.
func (c *Controller) notify(n jmx.Notification) {
	c.notifs = append(c.notifs, n)
}

// DrainNotifications returns and clears the queued actuation
// notifications; the owner emits them on its MBeanServer.
func (c *Controller) DrainNotifications() []jmx.Notification {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.notifs
	c.notifs = nil
	return out
}

// Status returns every tracked node's actuation state, sorted by name.
func (c *Controller) Status() []NodeStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]NodeStatus, 0, len(c.order))
	for _, name := range c.order {
		n := c.nodes[name]
		out = append(out, NodeStatus{
			Node:          name,
			State:         n.state,
			Component:     n.suspect,
			Hold:          n.hold,
			SinceEpoch:    n.since,
			CooldownUntil: n.cooldownUntil,
			Cycles:        n.cycles,
			FreedBytes:    n.freed,
		})
	}
	return out
}

// NodeState returns one node's current state (Healthy for unknown
// nodes — an untracked node is by definition in full rotation).
func (c *Controller) NodeState(node string) State {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.nodes[node]; n != nil {
		return n.state
	}
	return Healthy
}

// History returns a copy of the transition history, oldest first
// (bounded by Config.HistoryCap).
func (c *Controller) History() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.history...)
}

// Stats returns the cumulative actuation counters.
func (c *Controller) Stats() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters
}

// Epoch returns the last epoch observed.
func (c *Controller) Epoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}
