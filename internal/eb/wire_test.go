package eb

import (
	"net"
	"slices"
	"testing"
	"time"
)

// runFleet drives K wire-connected driver nodes under one coordinator
// over in-memory pipes, for duration on the configured population and mix,
// and returns the coordinator with merged telemetry.
func runFleet(t *testing.T, base ShardedConfig, k int, duration time.Duration) *LoadCoordinator {
	t.Helper()
	return runFleetSchedule(t, base, k, []Phase{{Duration: duration, EBs: base.Sessions, Mix: base.Mix}})
}

func runFleetSchedule(t *testing.T, base ShardedConfig, k int, phases []Phase) *LoadCoordinator {
	t.Helper()
	var duration time.Duration
	for _, ph := range phases {
		duration += ph.Duration
	}
	coord := NewLoadCoordinator(duration, 100*time.Millisecond)
	conns := make([]net.Conn, k)
	errCh := make(chan error, k)
	for i := 0; i < k; i++ {
		cfg := base
		cfg.DriverIndex = i
		cfg.DriverCount = k
		// Vary shard counts across nodes: a fleet need not be homogeneous,
		// and the merged result must not care.
		cfg.Shards = 1 + i%3
		node := newNode(t, cfg, phases)
		local, remote := net.Pipe()
		conns[i] = local
		go func() { errCh <- node.Serve(remote) }()
	}
	if err := coord.Run(conns); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	for i := 0; i < k; i++ {
		if err := <-errCh; err != nil {
			t.Fatalf("node: %v", err)
		}
	}
	for _, conn := range conns {
		conn.Close()
	}
	return coord
}

func newNode(t *testing.T, cfg ShardedConfig, phases []Phase) *DriverNode {
	t.Helper()
	node, err := NodeForDriver(NewShardedDriver(cfg, nil), phases)
	if err != nil {
		t.Fatal(err)
	}
	return node
}

// TestDriverWireKParity is the multi-process acceptance bar: splitting
// the load over K wire-paced driver processes must reproduce the
// single-process run exactly — counters, per-second WIPS buckets and the
// completion checksum all merge to the same values for K = 1, 2, 5.
func TestDriverWireKParity(t *testing.T) {
	const duration = 2 * time.Minute
	base := ShardedConfig{Seed: 42, Mix: Shopping, Sessions: 120}

	ref := NewShardedDriver(base, nil)
	ref.Run(duration, nil)
	if ref.Completed() == 0 {
		t.Fatal("reference run completed nothing")
	}
	refBuckets := ref.WIPSBuckets()

	for _, k := range []int{1, 2, 5} {
		coord := runFleet(t, base, k, duration)
		if coord.Completed() != ref.Completed() || coord.Failed() != ref.Failed() {
			t.Fatalf("K=%d: completed/failed %d/%d, want %d/%d",
				k, coord.Completed(), coord.Failed(), ref.Completed(), ref.Failed())
		}
		if coord.Checksum() != ref.Checksum() {
			t.Fatalf("K=%d: checksum %#x, want %#x", k, coord.Checksum(), ref.Checksum())
		}
		cb := coord.WIPSBuckets()
		if len(cb) != len(refBuckets) {
			t.Fatalf("K=%d: %d buckets, want %d", k, len(cb), len(refBuckets))
		}
		for i := range cb {
			if cb[i] != refBuckets[i] {
				t.Fatalf("K=%d: bucket %d = %d, want %d", k, i, cb[i], refBuckets[i])
			}
		}
	}
}

// TestScheduleWireKParity is K-parity for a phase schedule: every node
// arms the same schedule and enters each phase for its own sessions at the
// boundary, wherever the coordinator's grants fall around it.
func TestScheduleWireKParity(t *testing.T) {
	base := ShardedConfig{Seed: 42, Sessions: 10}
	ref := NewShardedDriver(base, nil)
	if err := ref.RunSchedule(shiftSchedule(), nil); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3} {
		coord := runFleetSchedule(t, base, k, shiftSchedule())
		if coord.Completed() != ref.Completed() || coord.Checksum() != ref.Checksum() {
			t.Fatalf("K=%d: completed/checksum %d/%#x, want %d/%#x",
				k, coord.Completed(), coord.Checksum(), ref.Completed(), ref.Checksum())
		}
		if !slices.Equal(coord.WIPSBuckets(), ref.WIPSBuckets()) {
			t.Fatalf("K=%d: WIPS buckets differ", k)
		}
	}
}

// TestDriverWireOpenLoopParity runs the parity check under Poisson
// arrivals: lane ownership (lane mod K) must partition the arrival
// process without changing it.
func TestDriverWireOpenLoopParity(t *testing.T) {
	const duration = 90 * time.Second
	base := ShardedConfig{
		Seed:              7,
		Mix:               Browsing,
		Arrival:           OpenLoop,
		Rate:              40,
		MeanSessionLength: 10,
		MaxSessions:       8192,
	}
	ref := NewShardedDriver(base, nil)
	ref.Run(duration, nil)
	if ref.Dropped() != 0 {
		t.Fatalf("reference shed %d arrivals", ref.Dropped())
	}
	coord := runFleet(t, base, 3, duration)
	if coord.Dropped() != 0 {
		t.Fatalf("fleet shed %d arrivals", coord.Dropped())
	}
	if coord.Completed() != ref.Completed() {
		t.Fatalf("fleet completed %d, want %d", coord.Completed(), ref.Completed())
	}
	if coord.Checksum() != ref.Checksum() {
		t.Fatalf("fleet checksum %#x, want %#x", coord.Checksum(), ref.Checksum())
	}
}

// TestDriverWireSaturatedParity runs the K-parity check in the shedding
// regime: lane-local admission budgets make even the dropped arrivals
// identical between one process and a fleet.
func TestDriverWireSaturatedParity(t *testing.T) {
	const duration = 90 * time.Second
	base := ShardedConfig{
		Seed:              11,
		Mix:               Shopping,
		Arrival:           OpenLoop,
		Rate:              2000,
		MeanSessionLength: 20,
		MaxSessions:       4096,
	}
	ref := NewShardedDriver(base, nil)
	ref.Run(duration, nil)
	if ref.Dropped() == 0 {
		t.Fatal("reference did not saturate")
	}
	coord := runFleet(t, base, 3, duration)
	if coord.Dropped() != ref.Dropped() || coord.Completed() != ref.Completed() {
		t.Fatalf("fleet completed/dropped %d/%d, want %d/%d",
			coord.Completed(), coord.Dropped(), ref.Completed(), ref.Dropped())
	}
	if coord.Checksum() != ref.Checksum() {
		t.Fatalf("fleet checksum %#x, want %#x", coord.Checksum(), ref.Checksum())
	}
}

// TestDriverWireRejectsStrangers pins the fail-loud behaviour on protocol
// mismatch: a coordinator fed a non-node stream errors instead of
// wedging, as does a node fed a non-coordinator stream.
func TestDriverWireRejectsStrangers(t *testing.T) {
	coord := NewLoadCoordinator(time.Second, 0)
	local, remote := net.Pipe()
	go func() {
		remote.Write([]byte("GET / HTTP/1.1\r\n"))
	}()
	if err := coord.Run([]net.Conn{local}); err == nil {
		t.Fatal("coordinator accepted a stranger")
	}
	local.Close()
	remote.Close()

	node := newNode(t, ShardedConfig{Seed: 1, Sessions: 4}, []Phase{{Duration: time.Second, EBs: 4}})
	local2, remote2 := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- node.Serve(remote2) }()
	buf := make([]byte, 64)
	local2.Read(buf) // swallow the HELLO
	local2.Write([]byte("nope"))
	if err := <-done; err == nil {
		t.Fatal("node accepted a stranger")
	}
	local2.Close()
	remote2.Close()
}

// TestDriverWireMismatchedFleetSize pins the HELLO validation: a node
// configured for a different fleet size is refused at connect time.
func TestDriverWireMismatchedFleetSize(t *testing.T) {
	coord := NewLoadCoordinator(time.Second, 0)
	node := newNode(t, ShardedConfig{Seed: 1, Sessions: 4, DriverIndex: 0, DriverCount: 2}, []Phase{{Duration: time.Second, EBs: 4}})
	local, remote := net.Pipe()
	go func() { _ = node.Serve(remote) }()
	if err := coord.Run([]net.Conn{local}); err == nil {
		t.Fatal("coordinator accepted a node from a differently-sized fleet")
	}
	local.Close()
	remote.Close()
}
