package cluster

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// feedCluster publishes `rounds` synchronized rounds for every node over
// its own transport: per round, the nodes publish concurrently (arbitrary
// cross-node interleaving, which the epoch fold must absorb), and the
// next round starts only after the aggregator has ingested the current
// one — nodes sample at the same cadence in a real cluster, they do not
// run minutes ahead of each other.
func feedCluster(t *testing.T, agg *Aggregator, trs map[string]Transport, leaks map[string]int64, rounds int64) {
	t.Helper()
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	for seq := int64(1); seq <= rounds; seq++ {
		at := t0.Add(time.Duration(seq) * 30 * time.Second)
		var wg sync.WaitGroup
		for node, tr := range trs {
			wg.Add(1)
			go func(node string, tr Transport) {
				defer wg.Done()
				if err := tr.Publish(syntheticRound(node, seq, at, leaks[node])); err != nil {
					t.Errorf("publish %s/%d: %v", node, seq, err)
				}
			}(node, tr)
		}
		wg.Wait()
		// Wire delivery is asynchronous: barrier on the fold, not the count.
		if err := agg.Quiesce(int64(len(trs))*seq, time.Now().Add(5*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
}

// clusterVerdictsOf strips the transport-dependent fields (times) from a
// report for comparison.
func clusterVerdictsOf(rep *ClusterReport) any {
	if rep == nil {
		return nil
	}
	c := *rep
	c.Time = time.Time{}
	return c
}

// TestWireAndInProcProduceIdenticalVerdicts runs the same three-node
// round set through the in-process transport and through the binary wire
// over net pipes with concurrent per-node publishers, and requires
// byte-identical cluster and per-node verdicts: the epoch fold must
// absorb arbitrary cross-node interleaving, and the codec must be
// invisible to detection.
func TestWireAndInProcProduceIdenticalVerdicts(t *testing.T) {
	nodes := []string{"node1", "node2", "node3"}
	leaks := map[string]int64{"node1": 0, "node2": 4096, "node3": 0}
	const rounds = 20

	inproc := New(Config{Detect: testDetect()})
	inproc.Expect(nodes...)
	tr := NewInProc(inproc)
	// Interleave in engine order: all nodes publish round k before k+1.
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	for seq := int64(1); seq <= rounds; seq++ {
		for _, n := range nodes {
			if err := tr.Publish(syntheticRound(n, seq, t0.Add(time.Duration(seq)*30*time.Second), leaks[n])); err != nil {
				t.Fatal(err)
			}
		}
	}

	wired := New(Config{Detect: testDetect()})
	wired.Expect(nodes...)
	trs := make(map[string]Transport, len(nodes))
	for _, n := range nodes {
		client, server := net.Pipe()
		go func() { _ = wired.ServeBinaryConn(server) }()
		w := NewBinaryWire(client)
		defer w.Close()
		trs[n] = w
	}
	feedCluster(t, wired, trs, leaks, rounds)

	for _, res := range core.DetectorResources {
		a, b := clusterVerdictsOf(inproc.Report(res)), clusterVerdictsOf(wired.Report(res))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s cluster reports differ:\ninproc: %+v\nwire:   %+v", res, a, b)
		}
	}
	// Per-node verdict streams must agree too.
	for _, n := range nodes {
		for _, res := range core.DetectorResources {
			ra, rb := inproc.NodeReport(n, res), wired.NodeReport(n, res)
			if (ra == nil) != (rb == nil) {
				t.Fatalf("%s/%s: one transport missing a report", n, res)
			}
			if ra == nil {
				continue
			}
			va, vb := ra.Components, rb.Components
			if !reflect.DeepEqual(va, vb) {
				t.Fatalf("%s/%s verdicts differ:\ninproc: %+v\nwire:   %+v", n, res, va, vb)
			}
		}
	}
	// And the wire run must still name the sick pair.
	top, ok := wired.Report(core.ResourceMemory).Top()
	if !ok || top.Pair() != "node2/leaky" {
		t.Fatalf("wire top = %+v", top)
	}
}

// TestBinaryWireOverTCP exercises the binary codec on a real socket: an
// aggregator serving each accepted TCP connection with ServeBinaryConn,
// three dialed node connections.
func TestBinaryWireOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer ln.Close()

	agg := New(Config{Detect: testDetect()})
	nodes := []string{"node1", "node2", "node3"}
	agg.Expect(nodes...)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_ = agg.ServeBinaryConn(conn)
			}()
		}
	}()

	const rounds = 12
	trs := make(map[string]Transport, len(nodes))
	for _, n := range nodes {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		w := NewBinaryWire(conn)
		defer w.Close()
		trs[n] = w
	}
	feedCluster(t, agg, trs, map[string]int64{"node1": 4096, "node2": 4096, "node3": 4096}, rounds)

	rep := agg.Report(core.ResourceMemory)
	top, ok := rep.Top()
	if !ok || top.Component != "leaky" || !top.ClusterWide {
		t.Fatalf("binary TCP cluster verdict wrong: %v", rep)
	}
}

func TestForwarderShipsCollectorRounds(t *testing.T) {
	agg := New(Config{Detect: testDetect()})
	agg.Expect("nodeX")
	fw := NewForwarder("nodeX", NewInProc(agg))
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		fw.ObserveSample(t0.Add(time.Duration(i)*30*time.Second), []core.ComponentSample{
			{Component: "c", Size: int64(1000 + i), SizeOK: true, Usage: int64(10 * i)},
		})
	}
	if fw.Rounds() != 5 || fw.Errors() != 0 {
		t.Fatalf("rounds=%d errs=%d", fw.Rounds(), fw.Errors())
	}
	if agg.TotalRounds() != 5 {
		t.Fatalf("aggregator saw %d rounds", agg.TotalRounds())
	}
	var status NodeStatus
	for _, s := range agg.Nodes() {
		if s.Node == "nodeX" {
			status = s
		}
	}
	if status.Rounds != 5 {
		t.Fatalf("node status %+v", status)
	}
}

func TestTransportClosedPublishFails(t *testing.T) {
	agg := New(Config{})
	p := NewInProc(agg)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Publish(Round{Node: "n", Seq: 1}); err == nil {
		t.Fatal("publish after close succeeded")
	}

	client, server := net.Pipe()
	done := make(chan struct{})
	go func() { _ = agg.ServeBinaryConn(server); close(done) }()
	w := NewBinaryWire(client)
	if err := w.Publish(Round{Node: "n", Seq: 1, Time: time.Unix(0, 0)}); err != nil {
		t.Fatalf("publish on open pipe: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Publish(Round{Node: "n", Seq: 2}); err == nil {
		t.Fatal("publish after close succeeded")
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("server loop did not exit on close")
	}
}

// TestFrameReadersRejectHostileStreams drives the three serving loops
// that share readMagic/readFrames with streams a healthy peer never
// sends. A stream that ends before its first byte is a clean end; a
// wrong magic, an over-limit length prefix or a payload cut short is an
// error, after which the serving end has closed its connection.
func TestFrameReadersRejectHostileStreams(t *testing.T) {
	readers := []struct {
		name  string
		magic bool
		serve func(conn net.Conn) error
	}{
		{"ServeBinaryConn", true, func(conn net.Conn) error {
			return New(Config{Detect: testDetect()}).ServeBinaryConn(conn)
		}},
		{"ServeControl", false, func(conn net.Conn) error {
			return NewBinaryWire(conn).ServeControl(func(ControlCommand) ControlAck { return ControlAck{OK: true} })
		}},
		{"StandbyReceiver.Serve", true, func(conn net.Conn) error {
			return NewStandbyReceiver().Serve(conn)
		}},
	}
	cases := []struct {
		name    string
		stream  func(header []byte) []byte
		wantErr string // "" wants nil, else a substring of the error
		magic   bool   // only for readers that take a magic
	}{
		{name: "closed before any byte", stream: func([]byte) []byte { return nil }},
		{name: "wrong magic", magic: true, wantErr: "magic",
			stream: func([]byte) []byte { return []byte{'A', 'G', 'M', 5, 0} }},
		{name: "length over limit", wantErr: "exceeds limit",
			stream: func(h []byte) []byte { return binary.AppendUvarint(h, maxBinaryFrame+1) }},
		{name: "payload cut short", wantErr: "unexpected EOF",
			stream: func(h []byte) []byte { return append(binary.AppendUvarint(h, 10), 1, 2, 3) }},
	}
	for _, rd := range readers {
		for _, tc := range cases {
			if tc.magic && !rd.magic {
				continue
			}
			t.Run(rd.name+"/"+tc.name, func(t *testing.T) {
				var header []byte
				if rd.magic {
					header = wireMagic[:]
				}
				stream := tc.stream(append([]byte(nil), header...))
				client, server := net.Pipe()
				served := make(chan error, 1)
				go func() { served <- rd.serve(server) }()
				go func() {
					if len(stream) > 0 {
						_, _ = client.Write(stream)
					}
					_ = client.Close() // end the stream where it stands
				}()
				var err error
				select {
				case err = <-served:
				case <-time.After(5 * time.Second):
					t.Fatal("serving loop did not return")
				}
				switch {
				case tc.wantErr == "":
					if err != nil {
						t.Fatalf("serve = %v, want nil at a clean end of stream", err)
					}
					return
				case err == nil:
					t.Fatalf("serve = nil, want an error")
				case !strings.Contains(err.Error(), tc.wantErr):
					t.Fatalf("serve = %v, want an error containing %q", err, tc.wantErr)
				}
				// A pipe end closed locally reads io.ErrClosedPipe; one
				// closed only by its peer reads io.EOF.
				if _, rerr := server.Read(make([]byte, 1)); !errors.Is(rerr, io.ErrClosedPipe) {
					t.Fatalf("after %v the serving end reads %v, want it closed", err, rerr)
				}
			})
		}
	}
}
