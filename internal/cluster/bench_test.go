package cluster

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The monitoring-plane wire benchmarks: what one steady-state sampling
// round costs to ship (encode+write), to decode, and to fold into the
// aggregator. Every benchmark pre-warms past the cold start (name
// interning, window fill) so the numbers are the forever-after cost the
// cluster pays at sampling cadence. BENCH_baseline.json records the
// before/after history.

// discardConn is a net.Conn that swallows writes — the transports' write
// path without kernel noise.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) Close() error                     { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// roundGen yields successive steady-state rounds of a fixed
// 14-component node, mutating one Round in place so generating the next
// round costs no allocation inside a timed loop. Consumers must respect
// the borrow contract (every Transport and Ingest does).
type roundGen struct {
	r Round
}

func newRoundGen(node string) *roundGen {
	g := &roundGen{r: manyRounds(node, 1, 14)[0]}
	g.r.Seq = 0
	return g
}

// at mutates the generator's round to sequence seq and returns it.
func (g *roundGen) at(seq int64) Round {
	g.r.Seq = seq
	g.r.Time = time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(seq) * 30 * time.Second)
	for i := range g.r.Samples {
		g.r.Samples[i].Size = int64(10000*(i+1)) + 512*seq
		g.r.Samples[i].Usage = seq * int64(100+i)
		g.r.Samples[i].CPUSeconds = (time.Duration(seq) * time.Duration(i+1) * 10 * time.Millisecond).Seconds()
		g.r.Samples[i].Delta = 64 * seq
	}
	return g.r
}

// next advances and returns the following round.
func (g *roundGen) next() Round { return g.at(g.r.Seq + 1) }

// BenchmarkWirePublish measures shipping one steady-state round through
// the wire transport (encode + write to a discarded connection), and
// reports the steady-state cost on the wire as bytes/round and
// frames/round. The binary-batch8 case is the fleet fan-in flush policy
// (8 rounds per BATCH frame), amortising the frame prefix and write
// call across the batch.
func BenchmarkWirePublish(b *testing.B) {
	for _, bc := range []struct {
		name  string
		batch int
	}{{"binary", 1}, {"binary-batch8", 8}} {
		b.Run(bc.name, func(b *testing.B) {
			var counter countingConn
			bw := NewBinaryWire(&counter)
			if err := bw.SetBatch(bc.batch, 0); err != nil {
				b.Fatal(err)
			}
			gen := newRoundGen("node1")
			publish := func() {
				if err := bw.Publish(gen.next()); err != nil {
					b.Fatal(err)
				}
			}
			for gen.r.Seq < 32 { // warm: names interned
				publish()
			}
			if err := bw.Flush(); err != nil {
				b.Fatal(err)
			}
			startBytes, startWrites := counter.n.Load(), counter.writes.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				publish()
			}
			b.StopTimer()
			// Flush the tail so a partial batch's bytes are accounted.
			if err := bw.Flush(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(counter.n.Load()-startBytes)/float64(b.N), "wire-bytes/round")
			b.ReportMetric(float64(counter.writes.Load()-startWrites)/float64(b.N), "frames/round")
		})
	}
}

// countingConn counts written bytes and write calls (frames) and
// discards the data. Counters are atomic so tests can observe a
// deadline flush from the wire's timer goroutine.
type countingConn struct {
	discardConn
	n      atomic.Int64
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.n.Add(int64(len(p)))
	c.writes.Add(1)
	return len(p), nil
}

// BenchmarkWireDecode measures decoding one steady-state round from a
// pre-encoded stream (the serving loop's work per round, minus the
// socket).
func BenchmarkWireDecode(b *testing.B) {
	const chunk = 512
	b.Run("binary", func(b *testing.B) {
		enc := NewBinaryEncoder()
		gen := newRoundGen("node1")
		var stream []byte
		for seq := int64(1); seq <= chunk; seq++ {
			stream = enc.AppendRound(stream, gen.next())
		}
		var dec *BinaryDecoder
		var pos int
		reset := func() {
			dec = NewBinaryDecoder()
			pos = 4 // past the stream header
		}
		reset()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%chunk == 0 {
				reset()
			}
			n, w := binary.Uvarint(stream[pos:])
			if w <= 0 {
				b.Fatal("bad frame")
			}
			if _, err := dec.DecodeFrame(stream[pos+w : pos+w+int(n)]); err != nil {
				b.Fatal(err)
			}
			pos += w + int(n)
		}
	})
}

// benchAggregatorConfig is the aggregator the aggregation-plane
// benchmarks drive: the package defaults with the tests' detector
// tuning. The fold runs inline, so allocs/op does not depend on the
// host's core count.
func benchAggregatorConfig() Config {
	return Config{Detect: testDetect()}
}

// BenchmarkAggregatorIngest measures folding one node round into the
// aggregator: per-node detector banks, epoch fold, merged log — the
// aggregator-side cost of one round at steady state.
func BenchmarkAggregatorIngest(b *testing.B) {
	for _, nodes := range []int{1, 3, 32, 128} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			a := New(benchAggregatorConfig())
			names := make([]string, nodes)
			for i := range names {
				names[i] = fmt.Sprintf("node%d", i+1)
			}
			a.Expect(names...)
			gens := make([]*roundGen, nodes)
			for i, n := range names {
				gens[i] = newRoundGen(n)
			}
			seq := int64(0)
			round := func() {
				seq++
				for _, g := range gens {
					a.Ingest(g.at(seq))
				}
			}
			for seq < 64 { // past window fill and first epochs
				round()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
			b.StopTimer()
			if a.Epoch() < int64(64+b.N-4) {
				b.Fatalf("epochs did not keep up: %d", a.Epoch())
			}
		})
	}
}

// BenchmarkAggregatorParallelIngest measures the aggregator under fleet
// fan-in: one publisher goroutine per node (the shape a wire deployment
// produces — one serving goroutine per node connection), all ingesting
// their round for the same epoch concurrently. One benchmark op is one
// full cluster round (N concurrent ingests plus the epoch fold they
// complete); the per-round barrier models the shared sampling cadence
// and keeps per-node drift below the staleness eviction window.
func BenchmarkAggregatorParallelIngest(b *testing.B) {
	for _, nodes := range []int{8, 32} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			a := New(benchAggregatorConfig())
			names := make([]string, nodes)
			for i := range names {
				names[i] = fmt.Sprintf("node%d", i+1)
			}
			a.Expect(names...)
			feeds := make([]chan int64, nodes)
			var done sync.WaitGroup
			for i, n := range names {
				feeds[i] = make(chan int64, 1)
				gen := newRoundGen(n)
				go func(feed <-chan int64, g *roundGen) {
					for seq := range feed {
						a.Ingest(g.at(seq))
						done.Done()
					}
				}(feeds[i], gen)
			}
			seq := int64(0)
			round := func() {
				seq++
				done.Add(nodes)
				for _, feed := range feeds {
					feed <- seq
				}
				done.Wait()
			}
			for seq < 64 { // past window fill and first epochs
				round()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
			b.StopTimer()
			for _, feed := range feeds {
				close(feed)
			}
			if a.Epoch() < seq-4 {
				b.Fatalf("epochs did not keep up: %d of %d", a.Epoch(), seq)
			}
		})
	}
}

// BenchmarkForwarderObserve measures the node-side cost of shipping a
// sampling round: the forwarder wrapping the collector's borrowed batch
// and the transport consuming it. The in-proc case includes the full
// aggregator ingest; the wire cases are pure encode+write.
func BenchmarkForwarderObserve(b *testing.B) {
	cases := []struct {
		name string
		tr   func() Transport
	}{
		{"inproc", func() Transport {
			a := New(Config{Detect: testDetect()})
			a.Expect("node1")
			return NewInProc(a)
		}},
		{"wire-binary", func() Transport { return NewBinaryWire(&countingConn{}) }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			fw := NewForwarder("node1", tc.tr())
			gen := newRoundGen("node1")
			now := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
			observe := func() {
				r := gen.at(fw.Rounds() + 1)
				now = now.Add(30 * time.Second)
				fw.ObserveSample(now, r.Samples)
			}
			for fw.Rounds() < 48 {
				observe()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				observe()
			}
			if fw.Errors() > 0 {
				b.Fatalf("%d publish errors", fw.Errors())
			}
		})
	}
}
