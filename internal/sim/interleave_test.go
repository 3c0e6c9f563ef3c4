package sim

import (
	"math/rand/v2"
	"sort"
	"testing"
	"time"
)

func TestWheelInterleavedReference(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 7))
		e := NewEngine()
		type rev struct {
			atNs int64
			seq  int
			id   int
		}
		var pending []rev
		var got, want []int
		handles := map[int]uint64{}
		seq := 0
		nextID := 0
		spans := []int64{int64(200 * time.Millisecond), int64(30 * time.Second), int64(2 * time.Hour), int64(60 * 24 * time.Hour)}
		for op := 0; op < 400; op++ {
			switch rng.IntN(4) {
			case 0, 1: // schedule
				d := time.Duration(rng.Int64N(spans[rng.IntN(len(spans))]))
				if rng.IntN(8) == 0 {
					d = d / time.Second * time.Second
				}
				at := e.Now().Add(d)
				id := nextID
				nextID++
				seq++
				handles[id] = e.Schedule(at, func(time.Time) { got = append(got, id) })
				pending = append(pending, rev{atNs: at.Sub(Epoch).Nanoseconds(), seq: seq, id: id})
			case 2: // cancel random pending
				if len(pending) > 0 {
					k := rng.IntN(len(pending))
					victim := pending[k]
					if e.Cancel(handles[victim.id]) {
						pending = append(pending[:k], pending[k+1:]...)
					} else {
						t.Fatalf("trial %d: Cancel false for pending id %d", trial, victim.id)
					}
				}
			case 3: // run forward
				d := time.Duration(rng.Int64N(int64(90 * time.Second)))
				deadline := e.Now().Add(d)
				dn := deadline.Sub(Epoch).Nanoseconds()
				e.RunUntil(deadline)
				// reference: all pending with at <= deadline run in order
				sort.Slice(pending, func(i, j int) bool {
					if pending[i].atNs != pending[j].atNs {
						return pending[i].atNs < pending[j].atNs
					}
					return pending[i].seq < pending[j].seq
				})
				k := 0
				for k < len(pending) && pending[k].atNs <= dn {
					want = append(want, pending[k].id)
					k++
				}
				pending = pending[k:]
			}
		}
		e.drain()
		sort.Slice(pending, func(i, j int) bool {
			if pending[i].atNs != pending[j].atNs {
				return pending[i].atNs < pending[j].atNs
			}
			return pending[i].seq < pending[j].seq
		})
		for _, p := range pending {
			want = append(want, p.id)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: executed %d, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: pos %d got %d want %d", trial, i, got[i], want[i])
			}
		}
	}
}
