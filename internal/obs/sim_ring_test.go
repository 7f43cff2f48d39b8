package obs

import (
	"runtime"
	"testing"
)

// emitSequential replays evs through Emit one at a time into a fresh
// ring of the given capacity — the reference behaviour EmitBatch must
// reproduce exactly.
func emitSequential(capacity int, evs []SimEvent) *SimTrace {
	s := NewSimTrace(capacity)
	for _, ev := range evs {
		s.Emit(ev)
	}
	return s
}

func makeEvents(n int) []SimEvent {
	evs := make([]SimEvent, n)
	for i := range evs {
		evs[i] = SimEvent{Cycle: int64(i), Kind: SimIssue, PC: int32(i)}
	}
	return evs
}

func assertSameRing(t *testing.T, want, got *SimTrace, label string) {
	t.Helper()
	if want.Total() != got.Total() {
		t.Fatalf("%s: total = %d, want %d", label, got.Total(), want.Total())
	}
	we, ge := want.Events(), got.Events()
	if len(we) != len(ge) {
		t.Fatalf("%s: retained = %d, want %d", label, len(ge), len(we))
	}
	for i := range we {
		if we[i] != ge[i] {
			t.Fatalf("%s: event %d = %+v, want %+v", label, i, ge[i], we[i])
		}
	}
}

// TestEmitBatchMatchesSequentialEmit sweeps batch sizes across the
// overwrite-oldest boundary: batches that exactly fill the ring, that
// overflow it by one, that wrap it multiple times, and that land while
// the write cursor is mid-ring must all retain byte-identical contents
// to one-at-a-time emission.
func TestEmitBatchMatchesSequentialEmit(t *testing.T) {
	const capacity = 8
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 40} {
		evs := makeEvents(n)
		got := NewSimTrace(capacity)
		got.EmitBatch(evs)
		assertSameRing(t, emitSequential(capacity, evs), got, "single batch")
	}
	// Pre-advance the cursor so the batch crosses the wrap point
	// mid-batch, for every possible cursor position.
	for pre := 0; pre <= capacity; pre++ {
		prefix := makeEvents(pre)
		batch := makeEvents(capacity + 3) // wraps once, lands mid-ring
		for i := range batch {
			batch[i].Cycle += 1000 // distinguish from the prefix
		}
		want := emitSequential(capacity, append(append([]SimEvent(nil), prefix...), batch...))
		got := emitSequential(capacity, prefix)
		got.EmitBatch(batch)
		assertSameRing(t, want, got, "cursor offset")
	}
}

// TestEmitBatchExactBoundary pins the two edge cases around a full
// ring: a batch ending exactly at the wrap point leaves the cursor at
// slot 0 (the *next* emit overwrites the oldest), and a batch of
// exactly the capacity replaces the entire retained window.
func TestEmitBatchExactBoundary(t *testing.T) {
	const capacity = 4
	s := NewSimTrace(capacity)
	s.EmitBatch(makeEvents(capacity))
	evs := s.Events()
	if len(evs) != capacity || evs[0].Cycle != 0 || evs[capacity-1].Cycle != int64(capacity-1) {
		t.Fatalf("full batch events = %+v", evs)
	}
	// One more event overwrites the oldest (cycle 0).
	s.Emit(SimEvent{Cycle: 100, Kind: SimStall})
	evs = s.Events()
	if evs[0].Cycle != 1 || evs[len(evs)-1].Cycle != 100 {
		t.Fatalf("post-wrap events = %+v", evs)
	}
	// A capacity-sized batch replaces the whole window.
	batch := makeEvents(capacity)
	for i := range batch {
		batch[i].Cycle += 500
	}
	s.EmitBatch(batch)
	evs = s.Events()
	for i, ev := range evs {
		if ev.Cycle != int64(500+i) {
			t.Fatalf("replaced window event %d = %+v", i, ev)
		}
	}
	if s.Total() != int64(2*capacity+1) {
		t.Fatalf("total = %d, want %d", s.Total(), 2*capacity+1)
	}
}

// TestEmitBatchLargerThanRing: only the tail of an oversized batch is
// retained, in emission order.
func TestEmitBatchLargerThanRing(t *testing.T) {
	const capacity = 4
	s := NewSimTrace(capacity)
	s.EmitBatch(makeEvents(11)) // wraps 2¾ times
	evs := s.Events()
	if len(evs) != capacity {
		t.Fatalf("retained = %d, want %d", len(evs), capacity)
	}
	for i, ev := range evs {
		if ev.Cycle != int64(7+i) {
			t.Fatalf("event %d cycle = %d, want %d", i, ev.Cycle, 7+i)
		}
	}
	if s.Total() != 11 {
		t.Fatalf("total = %d, want 11", s.Total())
	}
}

// TestEmitBatchNilAndEmpty: nil receivers and empty batches are
// allocation-free no-ops.
func TestEmitBatchNilAndEmpty(t *testing.T) {
	var nilRing *SimTrace
	if allocs := testing.AllocsPerRun(100, func() {
		nilRing.EmitBatch(makeEventsStatic)
		nilRing.Emit(SimEvent{})
	}); allocs != 0 {
		t.Errorf("nil EmitBatch allocates %v/op", allocs)
	}
	s := NewSimTrace(4)
	s.EmitBatch(nil)
	s.EmitBatch([]SimEvent{})
	if s.Total() != 0 || len(s.Events()) != 0 {
		t.Errorf("empty batches mutated the ring: total=%d", s.Total())
	}
}

// makeEventsStatic avoids per-iteration allocation inside AllocsPerRun.
var makeEventsStatic = makeEvents(3)

// TestNewSimTraceDefersRing: constructing a ring allocates only the
// header, and the first Emit or EmitBatch allocates the full capacity.
// Reading an untouched ring allocates no storage either.
func TestNewSimTraceDefersRing(t *testing.T) {
	const capacity = 1 << 12
	const n = 64
	traces := make([]*SimTrace, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range traces {
		traces[i] = NewSimTrace(capacity)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 1<<10 {
		t.Fatalf("NewSimTrace(%d) allocates %d bytes, want < 1 KiB", capacity, per)
	}
	s := traces[0]
	if s.Total() != 0 || len(s.Events()) != 0 || s.ring != nil {
		t.Fatalf("untouched ring: total=%d events=%d storage=%d", s.Total(), len(s.Events()), len(s.ring))
	}
	s.Emit(SimEvent{Cycle: 1})
	if len(s.ring) != capacity {
		t.Fatalf("first Emit allocated %d slots, want %d", len(s.ring), capacity)
	}
	b := traces[1]
	b.EmitBatch(makeEvents(2))
	if len(b.ring) != capacity {
		t.Fatalf("first EmitBatch allocated %d slots, want %d", len(b.ring), capacity)
	}
	runtime.KeepAlive(traces)
}

// TestLazyRingMatchesEagerRing: a ring allocated on first emit retains
// exactly what a preallocated ring retains — the last min(n, capacity)
// events, oldest first, with Total counting every event — around the
// empty, single, nearly-full, full and multiply-wrapped cases.
func TestLazyRingMatchesEagerRing(t *testing.T) {
	const capacity = 16
	for _, n := range []int{0, 1, capacity - 1, capacity, 3*capacity + 5} {
		evs := makeEvents(n)
		want := evs
		if n > capacity {
			want = evs[n-capacity:]
		}
		batched := NewSimTrace(capacity)
		batched.EmitBatch(evs)
		for _, c := range []struct {
			label string
			s     *SimTrace
		}{{"emit", emitSequential(capacity, evs)}, {"batch", batched}} {
			label, s := c.label, c.s
			if s.Total() != int64(n) {
				t.Fatalf("%s n=%d: total = %d, want %d", label, n, s.Total(), n)
			}
			got := s.Events()
			if len(got) != len(want) {
				t.Fatalf("%s n=%d: retained = %d, want %d", label, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s n=%d: event %d = %+v, want %+v", label, n, i, got[i], want[i])
				}
			}
		}
	}
}
