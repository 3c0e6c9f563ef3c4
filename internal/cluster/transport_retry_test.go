package cluster

import (
	"errors"
	"testing"
)

// flakyConn fails each write with zero bytes on the stream until failures
// is exhausted, then writes cleanly.
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

// partialConn accepts half of every write and then errors: bytes reached
// the stream.
type partialConn struct {
	discardConn
}

func (c *partialConn) Write(p []byte) (int, error) {
	return len(p) / 2, errors.New("broken pipe")
}

// TestBinaryWireRetryExhaustedDropsAndLatches pins that a failed write is
// tried once, never retried, counts the lost round and latches the wire
// broken — the delta chains already reflect the lost frame.
func TestBinaryWireRetryExhaustedDropsAndLatches(t *testing.T) {
	c := &flakyConn{failures: 100}
	w := NewBinaryWire(c)
	gen := newRoundGen("node1")
	if err := w.Publish(gen.next()); err == nil {
		t.Fatal("failed write did not surface")
	}
	if c.writes != 1 {
		t.Fatalf("writes = %d, want 1 (no retry)", c.writes)
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
// framing.
func TestPartialWriteNeverRetried(t *testing.T) {
	bw := NewBinaryWire(&partialConn{})
	gen := newRoundGen("node1")
	if err := bw.Publish(gen.next()); err == nil {
		t.Fatal("partial write not surfaced")
	}
	if err := bw.Publish(gen.next()); err == nil {
		t.Fatal("binary wire not latched after a partial write")
	}

}
