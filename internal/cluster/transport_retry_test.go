package cluster

import (
	"errors"
	"testing"
	"time"
)

// flakyConn fails each write with zero bytes on the stream until failures
// is exhausted, then writes cleanly — the retryable error class.
type flakyConn struct {
	discardConn
	failures int
	writes   int
}

func (c *flakyConn) Write(p []byte) (int, error) {
	c.writes++
	if c.failures > 0 {
		c.failures--
		return 0, errors.New("transient: sink full")
	}
	return len(p), nil
}

// partialConn accepts half of every write and then errors — the
// unretryable class: bytes reached the stream.
type partialConn struct {
	discardConn
}

func (c *partialConn) Write(p []byte) (int, error) {
	return len(p) / 2, errors.New("broken pipe")
}

func TestRetryPolicyBackoffBounds(t *testing.T) {
	p := RetryPolicy{Attempts: 5, Base: 10 * time.Millisecond, Max: 80 * time.Millisecond}
	var rng uint64
	for attempt := 0; attempt < 8; attempt++ {
		want := p.Base << attempt
		if want > p.Max {
			want = p.Max
		}
		for i := 0; i < 32; i++ {
			d := p.backoff(attempt, &rng)
			if d < want/2 || d > want {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, want/2, want)
			}
		}
	}
	// Defaults apply when the policy leaves durations zero.
	var rng2 uint64
	if d := (RetryPolicy{Attempts: 2}).backoff(0, &rng2); d < 5*time.Millisecond || d > 10*time.Millisecond {
		t.Fatalf("default backoff %v outside [5ms, 10ms]", d)
	}
}

// TestBinaryWireRetryRecoversTransient pins satellite behaviour: a write
// failing with nothing on the stream retries under the policy and the
// round is delivered, not dropped.
func TestBinaryWireRetryRecoversTransient(t *testing.T) {
	c := &flakyConn{failures: 2}
	w := NewBinaryWire(c)
	w.SetRetry(RetryPolicy{Attempts: 3, Base: time.Microsecond, Max: time.Microsecond})
	gen := newRoundGen("node1")
	if err := w.Publish(gen.next()); err != nil {
		t.Fatalf("publish did not recover: %v", err)
	}
	if c.writes != 3 {
		t.Fatalf("writes = %d, want 3 (two retries)", c.writes)
	}
	if w.DroppedRounds() != 0 {
		t.Fatalf("dropped = %d, want 0", w.DroppedRounds())
	}
	// The wire is healthy: later rounds flow without retries.
	if err := w.Publish(gen.next()); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryWireRetryExhaustedDropsAndLatches pins that exhausting the
// retry budget counts the lost rounds and latches the wire broken — the
// delta chains already reflect the lost frame.
func TestBinaryWireRetryExhaustedDropsAndLatches(t *testing.T) {
	c := &flakyConn{failures: 100}
	w := NewBinaryWire(c)
	w.SetRetry(RetryPolicy{Attempts: 3, Base: time.Microsecond, Max: time.Microsecond})
	gen := newRoundGen("node1")
	if err := w.Publish(gen.next()); err == nil {
		t.Fatal("exhausted retries did not surface")
	}
	if c.writes != 3 {
		t.Fatalf("writes = %d, want 3 attempts", c.writes)
	}
	if w.DroppedRounds() != 1 {
		t.Fatalf("dropped = %d, want 1", w.DroppedRounds())
	}
	c.failures = 0 // conn heals, but the codec state is unrecoverable
	if err := w.Publish(gen.next()); err == nil {
		t.Fatal("wire did not latch broken")
	}
	if w.DroppedRounds() != 2 {
		t.Fatalf("dropped after latch = %d, want 2", w.DroppedRounds())
	}
}

// TestBinaryWireBatchedRetryDropCountsRounds pins that a lost BATCH frame
// counts every round it carried, not one per frame.
func TestBinaryWireBatchedRetryDropCountsRounds(t *testing.T) {
	c := &flakyConn{failures: 100}
	w := NewBinaryWire(c)
	if err := w.SetBatch(3, 0); err != nil {
		t.Fatal(err)
	}
	gen := newRoundGen("node1")
	if err := w.Publish(gen.next()); err != nil {
		t.Fatal(err)
	}
	if err := w.Publish(gen.next()); err != nil {
		t.Fatal(err)
	}
	if err := w.Publish(gen.next()); err == nil { // third round ships the frame
		t.Fatal("failed flush did not surface")
	}
	if w.DroppedRounds() != 3 {
		t.Fatalf("dropped = %d, want 3 (the whole batch)", w.DroppedRounds())
	}
}

// TestPartialWriteNeverRetried pins that once any byte reaches the
// stream, the wire fails immediately — a retry would corrupt the peer's
// framing — even with a generous retry budget.
func TestPartialWriteNeverRetried(t *testing.T) {
	bw := NewBinaryWire(&partialConn{})
	bw.SetRetry(RetryPolicy{Attempts: 10, Base: time.Microsecond})
	gen := newRoundGen("node1")
	if err := bw.Publish(gen.next()); err == nil {
		t.Fatal("partial write not surfaced")
	}
	if err := bw.Publish(gen.next()); err == nil {
		t.Fatal("binary wire not latched after a partial write")
	}

}
