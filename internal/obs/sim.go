package obs

import (
	"fmt"
	"sync"
)

// SimEventKind discriminates cycle-level simulator events.
type SimEventKind uint8

// The simulator event stream's entry kinds (see internal/vliw).
const (
	// SimIssue: one bundle issued. Arg = ops in the bundle; Aux = 1
	// when issued from the loop buffer.
	SimIssue SimEventKind = iota + 1
	// SimStall: the issue stage stalled. Arg = stall cycles.
	SimStall
	// SimRedirect: a taken branch redirected fetch. Arg = penalty
	// cycles charged.
	SimRedirect
	// SimLoopRecord: a rec_[cw]loop fetch started recording a loop
	// image into the buffer (Table 3's record transition).
	SimLoopRecord
	// SimLoopReplay: the loop's image became valid and issue switched
	// to the buffer (exec_[cw]loop semantics).
	SimLoopReplay
	// SimLoopExit: control left a buffered loop. Arg = entry cycle, so
	// Cycle-Arg is the loop's buffer residency in cycles; Aux = 1 when
	// the loop was replaying at exit.
	SimLoopExit
	// SimCall / SimRet: function call boundaries.
	SimCall
	SimRet
)

// String names the kind for exports.
func (k SimEventKind) String() string {
	switch k {
	case SimIssue:
		return "issue"
	case SimStall:
		return "stall"
	case SimRedirect:
		return "redirect"
	case SimLoopRecord:
		return "rec_loop"
	case SimLoopReplay:
		return "exec_loop"
	case SimLoopExit:
		return "loop_exit"
	case SimCall:
		return "call"
	case SimRet:
		return "ret"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// SimEvent is one cycle-level event. Stored by value in the ring, so
// emitting allocates nothing.
type SimEvent struct {
	Cycle int64        `json:"cycle"`
	Kind  SimEventKind `json:"-"`
	KindS string       `json:"kind"`
	// Run labels the simulation (bench/config@buffer).
	Run string `json:"run,omitempty"`
	// Func and PC locate the event in scheduled code.
	Func string `json:"func,omitempty"`
	PC   int32  `json:"pc"`
	// Loop is the planned-loop key for buffer events.
	Loop string `json:"loop,omitempty"`
	Arg  int64  `json:"arg,omitempty"`
	Aux  int64  `json:"aux,omitempty"`
}

// DefaultSimEvents bounds a SimTrace ring.
const DefaultSimEvents = 1 << 16

// SimTrace is a bounded ring buffer of simulator events: writes past
// the capacity overwrite the oldest entries, so memory stays O(ring)
// however long the run. The ring itself is allocated by the first
// emit, so a trace nothing simulates into (a store-hit job's scope)
// costs a few words, not capacity events. Emit takes a mutex (the
// simulator is single-goroutine per run; cross-run sharing is still
// safe) and stores by value. A nil *SimTrace is a no-op sink.
type SimTrace struct {
	mu    sync.Mutex
	size  int
	ring  []SimEvent // nil until the first emit, then len size
	next  int
	total int64
}

// NewSimTrace creates a ring with the given capacity (<= 0 uses
// DefaultSimEvents). The capacity is fixed here; the storage is not
// allocated until the first event arrives.
func NewSimTrace(capacity int) *SimTrace {
	if capacity <= 0 {
		capacity = DefaultSimEvents
	}
	return &SimTrace{size: capacity}
}

// Emit records one event, overwriting the oldest when full. No-op (and
// allocation-free) on nil.
func (s *SimTrace) Emit(ev SimEvent) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ring == nil {
		s.ring = make([]SimEvent, s.size)
	}
	s.ring[s.next] = ev
	s.next++
	if s.next == len(s.ring) {
		s.next = 0
	}
	s.total++
	s.mu.Unlock()
}

// EmitBatch records evs in order under one lock acquisition, with the
// same ring semantics as len(evs) Emit calls: identical retained
// contents, order and total. Emitters with a burst of consecutive
// events (the simulator's loop-replay fast path emits one iteration's
// issue events at a time) use this to amortize the mutex.
func (s *SimTrace) EmitBatch(evs []SimEvent) {
	if s == nil || len(evs) == 0 {
		return
	}
	s.mu.Lock()
	if s.ring == nil {
		s.ring = make([]SimEvent, s.size)
	}
	for _, ev := range evs {
		s.ring[s.next] = ev
		s.next++
		if s.next == len(s.ring) {
			s.next = 0
		}
	}
	s.total += int64(len(evs))
	s.mu.Unlock()
}

// Total reports how many events were ever emitted (including
// overwritten ones).
func (s *SimTrace) Total() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Events returns the retained events in emission order (oldest first).
func (s *SimTrace) Events() []SimEvent {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.size
	if s.total < int64(n) {
		n = int(s.total)
		out := make([]SimEvent, n)
		copy(out, s.ring[:n])
		return out
	}
	out := make([]SimEvent, 0, n)
	out = append(out, s.ring[s.next:]...)
	out = append(out, s.ring[:s.next]...)
	return out
}

// chromeEvents renders the retained ring as Chrome trace events on the
// simulator pid: loop exits become complete ("X") events spanning the
// loop's buffer residency; everything else becomes an instant ("i")
// event. Timestamps are cycle numbers. Each distinct run label gets
// its own tid so overlapping runs do not interleave on one track.
func (s *SimTrace) chromeEvents() []chromeEvent {
	evs := s.Events()
	if len(evs) == 0 {
		return nil
	}
	tids := map[string]int64{}
	tidOf := func(run string) int64 {
		if id, ok := tids[run]; ok {
			return id
		}
		id := int64(len(tids) + 1)
		tids[run] = id
		return id
	}
	out := make([]chromeEvent, 0, len(evs))
	for _, ev := range evs {
		ce := chromeEvent{Pid: pidSim, Tid: tidOf(ev.Run)}
		args := map[string]any{"run": ev.Run, "func": ev.Func, "pc": ev.PC}
		switch ev.Kind {
		case SimLoopExit:
			ce.Name = "loop " + ev.Loop
			ce.Ph = "X"
			ce.Ts = ev.Arg // entry cycle
			ce.Dur = ev.Cycle - ev.Arg
			if ce.Dur <= 0 {
				ce.Dur = 1
			}
			args["loop"] = ev.Loop
			args["replaying"] = ev.Aux == 1
		case SimIssue:
			// Skip per-bundle issue instants in the viewer export (the
			// ring keeps them for programmatic use; rendering millions
			// of instants makes Perfetto unusable).
			continue
		default:
			ce.Name = ev.Kind.String()
			ce.Ph = "i"
			ce.S = "t"
			ce.Ts = ev.Cycle
			if ev.Loop != "" {
				args["loop"] = ev.Loop
			}
			if ev.Arg != 0 {
				args["arg"] = ev.Arg
			}
		}
		ce.Args = args
		out = append(out, ce)
	}
	return out
}
