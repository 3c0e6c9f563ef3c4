package rejuv

// Durable actuation state. The controller is the second half of the
// monitor's brain (the aggregator being the first): losing it mid-cycle
// strands nodes out of rotation — a drain nobody completes, a reboot
// nobody re-admits. Snapshot captures every per-node FSM (state,
// suspect, hold-down streak, cooldown, ack landing zone), the cumulative
// counters, the cluster-wide veto latches and the bounded transition
// history, in the canonical binc encoding: snapshotting a restored
// controller yields byte-identical output.
//
// Not captured, by design:
//
//   - pending notifications (transient; the promoted plane re-emits its
//     own), and
//   - the balancer / command-sender / detector-reset bindings — those
//     belong to the plane the controller runs on, not to its state.
//
// After restoring on a promoted standby, call ReconcileOrphans to
// re-anchor in-flight actuation against the new plane: the old
// aggregator's control routes died with it, so a drain is re-asserted,
// an unacked rejuvenate is treated as control lost (re-admit under
// cooldown — never a second reboot), and a probation weight is
// re-applied.

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/binc"
	"repro/internal/cluster"
	"repro/internal/jmx"
)

// rejuvSnapMagic distinguishes a controller snapshot from the
// aggregator's ("AGSN") when both ride the same SNAPSHOT frame.
var rejuvSnapMagic = [4]byte{'R', 'J', 'S', 'N'}

const rejuvSnapVersion = 1

// Decode bounds: a corrupt or hostile snapshot can never drive an
// allocation or a counter beyond these.
const (
	maxRejuvNodes   = 1 << 16
	maxRejuvHold    = 1 << 20
	maxRejuvHistory = 1 << 20
	maxRejuvCounter = int64(1) << 40
)

// AppendSnapshot appends the controller's durable state to dst.
func (c *Controller) AppendSnapshot(dst []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	cd := binc.NewEncoder(dst)
	c.codec(cd)
	return cd.Buffer()
}

// Snapshot returns the controller's durable state as a fresh buffer.
func (c *Controller) Snapshot() []byte { return c.AppendSnapshot(nil) }

// Restore loads a snapshot into a freshly constructed controller (same
// Config, new plane bindings). On error the controller must be
// discarded: state may be partially populated.
func (c *Controller) Restore(data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch != 0 || len(c.nodes) != 0 || len(c.history) != 0 {
		return errors.New("rejuv: restore target is not a fresh controller")
	}
	cd := binc.NewDecoder(data)
	if err := c.codec(cd); err != nil {
		return err
	}
	return cd.Done()
}

// codec codes the controller's durable state: its configuration, the
// epoch and counters, the veto latches, every node's FSM in name order
// and the transition history. Caller holds c.mu.
func (c *Controller) codec(cd *binc.Codec) error {
	magic := rejuvSnapMagic
	for i := range magic {
		cd.Byte(&magic[i])
	}
	cd.Check(magic == rejuvSnapMagic, "rejuv: bad snapshot magic %q", magic[:])
	v := byte(rejuvSnapVersion)
	cd.Byte(&v)
	cd.Check(v == rejuvSnapVersion, "rejuv: %w: %d", binc.ErrVersion, v)

	cfg := c.cfg
	for _, f := range []*int{
		&cfg.HoldDownEpochs, &cfg.MaxConcurrent, &cfg.DrainEpochs,
		&cfg.RebootEpochs, &cfg.ProbationEpochs, &cfg.ProbationWeight,
		&cfg.HealthyWeight, &cfg.CooldownEpochs, &cfg.HistoryCap,
	} {
		u := uint64(*f)
		cd.Uvarint(&u)
		cd.Check(u != 0 && u <= maxRejuvHold, "rejuv: snapshot config field %d out of range", u)
		*f = int(u)
	}
	cd.Check(cfg == c.cfg, "rejuv: snapshot config %+v does not match controller config %+v", cfg, c.cfg)

	cd.Varint(&c.epoch)
	for _, f := range []*int64{
		&c.counters.Rejuvenations, &c.counters.FreedBytes, &c.counters.Rollbacks,
		&c.counters.ControlLost, &c.counters.ForcedDrains, &c.counters.ClusterWideVetoes,
	} {
		cd.Varint(f)
		cd.Check(*f >= 0 && *f <= maxRejuvCounter, "rejuv: snapshot counter %d out of range", *f)
	}
	cd.Check(c.epoch >= 0 && c.epoch <= maxRejuvCounter, "rejuv: snapshot epoch %d out of range", c.epoch)

	for ks := cd.Sorted(slices.Collect(maps.Keys(c.cwSeen)), maxRejuvNodes); ks.Next(); {
		cd.Check(ks.Key() != "" && ks.InOrder(), "rejuv: snapshot veto latches not canonical at %q", ks.Key())
		if cd.Decoding() {
			c.cwSeen[ks.Key()] = true
		}
	}

	for ks := cd.Sorted(c.order, maxRejuvNodes); ks.Next(); {
		n := c.nodes[ks.Key()]
		if n == nil {
			n = &nodeFSM{name: ks.Key()}
			c.nodes[n.name] = n
			c.order = append(c.order, n.name)
		}
		hold := uint64(n.hold)
		cd.Byte((*byte)(&n.state))
		cd.String(&n.suspect)
		cd.Uvarint(&hold)
		cd.Varint(&n.since)
		cd.Varint(&n.cooldownUntil)
		cd.Varint(&n.cycles)
		cd.Varint(&n.freed)
		cd.Bool(&n.ackDone)
		cd.Bool(&n.ackOK)
		cd.String(&n.ackErr)
		cd.Varint(&n.ackFree)
		cd.Check(n.name != "" && ks.InOrder(), "rejuv: snapshot nodes not canonical at %q", n.name)
		cd.Check(n.state <= Probation, "rejuv: node %s has invalid state %d", n.name, n.state)
		cd.Check(hold <= maxRejuvHold, "rejuv: node %s hold %d out of range", n.name, hold)
		n.hold = int(hold)
		for _, v := range []int64{n.since, n.cooldownUntil, n.cycles, n.freed, n.ackFree} {
			cd.Check(v >= 0 && v <= maxRejuvCounter, "rejuv: node %s counter %d out of range", n.name, v)
		}
	}

	nHist := len(c.history)
	cd.Count(&nHist, maxRejuvHistory)
	cd.Check(nHist <= c.cfg.HistoryCap, "rejuv: snapshot history %d exceeds cap %d", nHist, c.cfg.HistoryCap)
	if err := cd.Err(); err != nil {
		return err
	}
	if cd.Decoding() {
		c.history = make([]Event, nHist)
	}
	for i := range c.history {
		ev := &c.history[i]
		cd.Varint(&ev.Epoch)
		cd.String(&ev.Node)
		cd.String(&ev.Component)
		cd.Byte((*byte)(&ev.From))
		cd.Byte((*byte)(&ev.To))
		cd.String(&ev.Note)
		cd.Check(ev.Node != "" && ev.From <= Probation && ev.To <= Probation &&
			ev.Epoch >= 0 && ev.Epoch <= maxRejuvCounter, "rejuv: snapshot history event %d not valid", i)
	}
	return cd.Err()
}

// ReconcileOrphans re-anchors in-flight actuation after a standby
// promotion. The aggregator that issued this controller's outstanding
// commands is dead, along with its control connections and any pending
// acks, so every node caught mid-cycle is resolved against the new
// plane:
//
//   - Draining: the drain is re-asserted on the balancer and re-sent to
//     the node; the FSM resumes its drain deadline where it left off.
//   - Rejuvenating without a recorded ack: whether the micro-reboot
//     landed is unknowable, so the node takes the control-lost path —
//     re-admitted un-rebooted at probation weight under a cooldown. A
//     second rejuvenate is never sent: never double-reboot.
//   - Rejuvenating with the ack already landed: the outcome is known;
//     the next ObserveEpoch consumes it normally.
//   - Probation: the reduced weight is re-asserted in case the balancer
//     was promoted alongside the controller and lost it.
//
// Call once, after Restore and before the first ObserveEpoch.
func (c *Controller) ReconcileOrphans() {
	var sends []pendingCommand
	c.mu.Lock()
	for _, name := range c.order {
		n := c.nodes[name]
		switch n.state {
		case Draining:
			c.bal.Drain(name)
			c.notify(jmx.Notification{
				Type:    NotifRejuvAction,
				Source:  Name(),
				Message: fmt.Sprintf("%s: resuming drain of %s after failover (epoch %d)", name, n.suspect, c.epoch),
				Data:    Event{Epoch: c.epoch, Node: name, Component: n.suspect, From: Draining, To: Draining, Note: "drain re-asserted after failover"},
			})
			sends = append(sends, pendingCommand{node: name, comp: n.suspect, kind: cluster.ControlDrain})
		case Rejuvenating:
			if n.ackDone {
				break
			}
			c.counters.ControlLost++
			n.cooldownUntil = c.epoch + int64(c.cfg.CooldownEpochs)
			c.bal.Readmit(name, c.cfg.ProbationWeight)
			c.transition(n, Probation, n.suspect,
				"rejuvenate ack orphaned by failover; re-admitted un-rebooted (control lost)")
		case Probation:
			c.bal.Readmit(name, c.cfg.ProbationWeight)
			c.notify(jmx.Notification{
				Type:    NotifRejuvAction,
				Source:  Name(),
				Message: fmt.Sprintf("%s: probation weight %d re-asserted after failover (epoch %d)", name, c.cfg.ProbationWeight, c.epoch),
				Data:    Event{Epoch: c.epoch, Node: name, Component: n.suspect, From: Probation, To: Probation, Note: "probation re-asserted after failover"},
			})
			sends = append(sends, pendingCommand{node: name, comp: "", kind: cluster.ControlReadmit, weight: c.cfg.ProbationWeight})
		}
	}
	c.mu.Unlock()
	for _, s := range sends {
		c.ctl.SendControl(s.node, s.kind, s.comp, s.weight, nil)
	}
}
