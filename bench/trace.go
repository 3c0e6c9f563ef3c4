package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/tpcw"
)

// The span names the harness records. Every span is taken from the
// benchmark's own wrappers around a call into a layer — nothing inside
// the program is instrumented.
const (
	spanSubmit  = "servlet.submit"  // one per request: the eb.Target / Invoke boundary
	spanSample  = "core.sample"     // the benchmark's own Manager.Sample call
	spanPublish = "cluster.publish" // cluster.Transport boundary, child of core.sample
	spanEpoch   = "cluster.epoch"   // epoch-completing publish -> SubscribeEpochs event
)

// noTag marks a span that carries no interaction tag.
const noTag = 0xff

// span is one timed call across a layer boundary. Times are nanoseconds
// since processStart (monotonic). Spans of one request, or one
// sampling round, share Trace.
type span struct {
	Name   string
	Tag    uint8 // index into tpcw.Interactions for servlet.submit, else noTag
	ID     uint64
	Parent uint64 // 0 = root
	Trace  uint64
	Start  int64
	End    int64
}

func (s span) dur() int64 { return s.End - s.Start }

// spanBuf is a single-goroutine span recorder: spans stay in memory until
// the run ends. Each recording goroutine owns one buffer (ids carry the
// buffer's prefix), so recording takes no lock.
type spanBuf struct {
	prefix uint64
	spans  []span
	open   []int // indices of spans begun and not ended, innermost last
}

func newSpanBuf(prefix uint64, capacity int) *spanBuf {
	return &spanBuf{prefix: prefix << 40, spans: make([]span, 0, capacity)}
}

// begin opens a span whose parent is the innermost open span of this
// buffer and returns its index for end.
func (b *spanBuf) begin(name string, tag uint8, trace uint64) int {
	var parent uint64
	if n := len(b.open); n > 0 {
		parent = b.spans[b.open[n-1]].ID
	}
	i := len(b.spans)
	b.spans = append(b.spans, span{
		Name: name, Tag: tag, ID: b.prefix | uint64(i+1), Parent: parent, Trace: trace,
		Start: int64(time.Since(processStart)),
	})
	b.open = append(b.open, i)
	return i
}

// end closes the span begin returned; spans close innermost first.
func (b *spanBuf) end(i int) {
	b.spans[i].End = int64(time.Since(processStart))
	b.open = b.open[:len(b.open)-1]
}

// selfTimes returns each span's self time by id: its duration minus the
// part of its interval its child spans cover (children are clipped to the
// parent and overlapping children are counted once).
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// durationsUs returns the durations of the named spans in microseconds,
// ascending.
func durationsUs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

// spanJSON is the on-disk form: the six fields of the tracing contract
// plus the interaction tag where one applies.
type spanJSON struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Trace   uint64 `json:"trace"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Tag     string `json:"tag,omitempty"`
}

// writeSpans writes spans as JSONL to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		js := spanJSON{Name: s.Name, ID: s.ID, Parent: s.Parent, Trace: s.Trace, StartNs: s.Start, EndNs: s.End}
		if s.Tag != noTag {
			js.Tag = tpcw.Interactions[s.Tag]
		}
		if err := enc.Encode(js); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
