// Control channel: the actuation direction of the cluster wire.
//
// Sampling rounds flow node → aggregator; closing the rejuvenation loop
// needs the opposite direction — the controller (internal/rejuv) sitting
// next to the aggregator must drain, micro-reboot and re-admit components
// on remote nodes. The binary stream is therefore bidirectional: the
// aggregator pushes CONTROL frames (one command each) down the same
// connection a node publishes rounds on, and the node answers with ACK
// frames interleaved between its BATCH frames. Control frames are
// stateless — no interning, no deltas — so they never interact with the
// round codec's per-stream state, and either side may drop one without
// desynchronising the stream.
//
// Routing is learned, not configured: ServeBinaryConn registers each node
// name it decodes rounds for against that connection, so a command to
// node N rides whatever connection N last published on. In-process nodes
// (the InProc transport: tests, the simulated cluster) register a
// ControlHandler directly with BindLocalControl; local handlers run
// synchronously on the sender's goroutine, which keeps single-process
// scenarios deterministic.
package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/binc"
	"repro/internal/core"
)

// ControlKind enumerates the actuation commands.
type ControlKind uint8

// Control command kinds.
const (
	// ControlDrain tells a node it is being drained (advisory: the
	// balancer's drain state lives cluster-side; the node may shed
	// caches or refuse new local work).
	ControlDrain ControlKind = 1
	// ControlRejuvenate micro-reboots the named component on the node.
	ControlRejuvenate ControlKind = 2
	// ControlReadmit tells a node it is back in rotation at Weight.
	ControlReadmit ControlKind = 3
)

func (k ControlKind) String() string {
	switch k {
	case ControlDrain:
		return "drain"
	case ControlRejuvenate:
		return "rejuvenate"
	case ControlReadmit:
		return "readmit"
	default:
		return fmt.Sprintf("control(%d)", uint8(k))
	}
}

// ControlCommand is one actuation order, aggregator → node.
type ControlCommand struct {
	Seq       uint64 // correlates the ack; unique per aggregator
	Kind      ControlKind
	Node      string
	Component string // rejuvenate target; empty for drain/re-admit
	Weight    int64  // re-admit weight; 0 otherwise
}

// ControlAck is a node's answer to one command, node → aggregator.
type ControlAck struct {
	Seq   uint64
	Kind  ControlKind
	OK    bool
	Freed int64 // bytes released by a rejuvenation
	Err   string
}

// ControlHandler executes one command on a node and returns its ack (Seq
// and Kind are filled in by the plumbing).
type ControlHandler func(ControlCommand) ControlAck

// code is the CONTROL frame's field list, after its type byte.
func (cmd *ControlCommand) code(c *binc.Codec) {
	codeKind(c, &cmd.Kind)
	c.Uvarint(&cmd.Seq)
	c.String(&cmd.Node)
	c.String(&cmd.Component)
	c.Varint(&cmd.Weight)
}

// code is the CONTROL-ACK frame's field list, after its type byte.
func (ack *ControlAck) code(c *binc.Codec) {
	codeKind(c, &ack.Kind)
	c.Uvarint(&ack.Seq)
	c.Bool(&ack.OK)
	c.Varint(&ack.Freed)
	c.String(&ack.Err)
}

// codeKind codes a control frame's kind byte; a decoded kind must name
// a command.
func codeKind(c *binc.Codec, k *ControlKind) {
	c.Byte((*byte)(k))
	c.Check(*k >= ControlDrain && *k <= ControlReadmit, "cluster: unknown control kind %d", *k)
}

// AppendControlFrame appends one length-prefixed CONTROL frame to dst.
// Control frames carry no stream state, so they need no header and may
// interleave anywhere between BATCH frames.
func AppendControlFrame(dst []byte, cmd ControlCommand) []byte {
	var c binc.Codec
	c.ResetEncoder(append(dst, frameControl))
	cmd.code(&c)
	return prefixLength(c.Buffer(), len(dst))
}

// AppendControlAckFrame appends one length-prefixed ACK frame to dst.
func AppendControlAckFrame(dst []byte, ack ControlAck) []byte {
	var c binc.Codec
	c.ResetEncoder(append(dst, frameControlAck))
	ack.code(&c)
	return prefixLength(c.Buffer(), len(dst))
}

// DecodeControlCommand decodes one CONTROL frame payload (without its
// length prefix, including the leading frame-type byte).
func DecodeControlCommand(payload []byte) (ControlCommand, error) {
	var cmd ControlCommand
	if len(payload) == 0 || payload[0] != frameControl {
		return cmd, fmt.Errorf("cluster: not a CONTROL frame")
	}
	var c binc.Codec
	c.ResetDecoder(payload[1:])
	cmd.code(&c)
	return cmd, c.Done()
}

// DecodeControlAck decodes one ACK frame payload (without its length
// prefix, including the leading frame-type byte).
func DecodeControlAck(payload []byte) (ControlAck, error) {
	var ack ControlAck
	if len(payload) == 0 || payload[0] != frameControlAck {
		return ack, fmt.Errorf("cluster: not an ACK frame")
	}
	var c binc.Codec
	c.ResetDecoder(payload[1:])
	ack.code(&c)
	return ack, c.Done()
}

// controlConn is the aggregator's writing half of one node connection's
// control channel. Writes are serialised on their own mutex — they
// interleave with nothing (the aggregator only reads the round
// direction), but several commands may target nodes multiplexed onto the
// same connection.
type controlConn struct {
	wmu  sync.Mutex
	conn net.Conn
	buf  []byte
}

// write ships one command frame with a bounded write. It runs on the
// sender's goroutine (SendControl spawns one per wire command), so a
// slow or dead peer stalls only this command, never the fold path.
func (cc *controlConn) write(cmd ControlCommand) error {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	cc.buf = AppendControlFrame(cc.buf[:0], cmd)
	return writeFrame(cc.conn, cc.buf)
}

// pendingControl tracks one in-flight wire command awaiting its ack.
type pendingControl struct {
	done func(ControlAck, error)
	cc   *controlConn
}

// BindLocalControl registers a synchronous in-process control handler
// for node — the actuation route for nodes sharing the aggregator's
// process (the InProc transport, which has no stream to carry control
// frames). A local binding takes precedence over a learned wire route.
func (a *Aggregator) BindLocalControl(node string, h ControlHandler) {
	a.ctlMu.Lock()
	if h == nil {
		delete(a.ctlLocal, node)
	} else {
		a.ctlLocal[node] = h
	}
	a.ctlMu.Unlock()
}

// registerControlConn learns (or refreshes) node's wire control route.
func (a *Aggregator) registerControlConn(node string, cc *controlConn) {
	a.ctlMu.Lock()
	a.ctlConns[node] = cc
	a.ctlMu.Unlock()
}

// unregisterControlConn tears down the routes a closing connection owns
// and fails its in-flight commands — their acks can never arrive.
func (a *Aggregator) unregisterControlConn(cc *controlConn, routed map[string]bool) {
	a.ctlMu.Lock()
	for node := range routed {
		if a.ctlConns[node] == cc {
			delete(a.ctlConns, node)
		}
	}
	var orphaned []*pendingControl
	for seq, pc := range a.ctlPending {
		if pc.cc == cc {
			orphaned = append(orphaned, pc)
			delete(a.ctlPending, seq)
		}
	}
	a.ctlMu.Unlock()
	for _, pc := range orphaned {
		pc.done(ControlAck{}, fmt.Errorf("cluster: control connection closed before ack"))
	}
}

// resolveControlAck completes the pending command an ACK frame answers.
// Unmatched acks (command already failed by a closing connection) are
// dropped.
func (a *Aggregator) resolveControlAck(ack ControlAck) {
	a.ctlMu.Lock()
	pc := a.ctlPending[ack.Seq]
	delete(a.ctlPending, ack.Seq)
	a.ctlMu.Unlock()
	if pc != nil {
		pc.done(ack, nil)
	}
}

// failControl fails one pending command (its write never reached the
// node).
func (a *Aggregator) failControl(seq uint64, err error) {
	a.ctlMu.Lock()
	pc := a.ctlPending[seq]
	delete(a.ctlPending, seq)
	a.ctlMu.Unlock()
	if pc != nil {
		pc.done(ControlAck{}, err)
	}
}

// SendControl routes one actuation command to a node and reports the
// outcome through done (which may be nil for fire-and-forget advisory
// commands). Local handlers run synchronously before SendControl
// returns; wire commands are written on their own goroutine and done
// fires later from the ack-reading loop — from the caller's point of
// view the call never blocks on the network. A node with neither a local
// binding nor a learned wire route fails immediately: the controller's
// deadline fallback, not a silent drop, decides what happens next.
func (a *Aggregator) SendControl(node string, kind ControlKind, component string, weight int, done func(ControlAck, error)) {
	a.ctlMu.Lock()
	a.ctlSeq++
	cmd := ControlCommand{Seq: a.ctlSeq, Kind: kind, Node: node, Component: component, Weight: int64(weight)}
	if h, ok := a.ctlLocal[node]; ok {
		a.ctlMu.Unlock()
		ack := h(cmd)
		ack.Seq, ack.Kind = cmd.Seq, cmd.Kind
		if done != nil {
			done(ack, nil)
		}
		return
	}
	cc := a.ctlConns[node]
	if cc == nil {
		a.ctlMu.Unlock()
		if done != nil {
			done(ControlAck{}, fmt.Errorf("cluster: no control route to node %q", node))
		}
		return
	}
	if done != nil {
		a.ctlPending[cmd.Seq] = &pendingControl{done: done, cc: cc}
	}
	a.ctlMu.Unlock()
	go func() {
		if err := cc.write(cmd); err != nil {
			if done != nil {
				a.failControl(cmd.Seq, err)
			}
		}
	}()
}

// ServeControl reads CONTROL frames arriving on the wire's connection —
// the aggregator → node direction of the stream this wire publishes
// rounds on — dispatches each to h, and answers with an ACK frame. Acks
// share the publish mutex with round frames, so they interleave at frame
// granularity, never inside one. It blocks until the connection closes
// (returning nil) or a frame is corrupt (returning the error after
// closing the connection, so the next Publish fail-stops); run it on its
// own goroutine.
func (w *BinaryWire) ServeControl(h ControlHandler) (err error) {
	defer func() {
		if err != nil {
			_ = w.conn.Close()
		}
	}()
	return readFrames(bufio.NewReader(w.conn), func(payload []byte) error {
		cmd, err := DecodeControlCommand(payload)
		if err != nil {
			return err
		}
		ack := h(cmd)
		ack.Seq, ack.Kind = cmd.Seq, cmd.Kind
		return w.sendControlAck(ack)
	})
}

// sendControlAck writes one ACK frame under the publish mutex. If no
// round has shipped yet, the stream header goes first — the serving
// aggregator reads the magic before any frame, whichever direction
// speaks first.
func (w *BinaryWire) sendControlAck(ack ControlAck) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken {
		return errors.New("cluster: binary wire broken by an earlier failed write")
	}
	var frame []byte
	if !w.enc.started {
		frame = append(frame, wireMagic[:]...)
		w.enc.started = true
	}
	frame = AppendControlAckFrame(frame, ack)
	if err := writeFrame(w.conn, frame); err != nil {
		w.broken = true
		_ = w.conn.Close()
		return err
	}
	return nil
}

// FrameworkControlHandler adapts a node's core.Framework to the control
// channel: rejuvenate commands fire Framework.MicroReboot on the named
// component; drain and re-admit commands are acknowledged as advisory —
// the balancer state machine driving them lives cluster-side with the
// controller, and the node itself has nothing to tear down.
func FrameworkControlHandler(f *core.Framework) ControlHandler {
	return func(cmd ControlCommand) ControlAck {
		switch cmd.Kind {
		case ControlRejuvenate:
			return ControlAck{OK: true, Freed: f.MicroReboot(cmd.Component)}
		case ControlDrain, ControlReadmit:
			return ControlAck{OK: true}
		default:
			return ControlAck{Err: fmt.Sprintf("cluster: unknown control kind %d", cmd.Kind)}
		}
	}
}
