package obs

import "sort"

// Shard is the single-writer ring buffer of trace events a Tracer
// owns. Exactly one goroutine may call Record at a time; the simulation
// (dispatch and measurement) records from its one event loop.
//
// Record never allocates and never blocks: when the ring is full the
// oldest event is overwritten and counted as dropped. Capacity is
// rounded up to a power of two so the ring index is a mask, not a
// division.
type Shard struct {
	buf  []Event
	mask uint64
	// n counts every Record call; buf[(n-1)&mask] is the newest event
	// and max(0, n-len(buf)) events have been overwritten.
	n uint64
}

// Record appends ev to the ring, overwriting the oldest event when
// full. Single-writer; callers nil-check the shard pointer so the
// disabled path is one branch.
func (s *Shard) Record(ev Event) {
	s.buf[s.n&s.mask] = ev
	s.n++
}

// Len returns the number of events currently retained.
func (s *Shard) Len() int {
	if s.n < uint64(len(s.buf)) {
		return int(s.n)
	}
	return len(s.buf)
}

// Dropped returns how many events were overwritten because the ring
// was full.
func (s *Shard) Dropped() uint64 {
	if s.n <= uint64(len(s.buf)) {
		return 0
	}
	return s.n - uint64(len(s.buf))
}

// reset forgets all recorded events, keeping the buffer.
func (s *Shard) reset() { s.n = 0 }

// events appends the retained events in record order.
func (s *Shard) events(dst []Event) []Event {
	if s.n <= uint64(len(s.buf)) {
		return append(dst, s.buf[:s.n]...)
	}
	// The ring wrapped: oldest retained event is at n&mask.
	start := s.n & s.mask
	dst = append(dst, s.buf[start:]...)
	return append(dst, s.buf[:start]...)
}

// DefaultShardEvents is the ring capacity used when the caller does
// not choose one: 64 Ki events ≈ 3 MiB.
const DefaultShardEvents = 1 << 16

// Tracer owns one ring and exports it as a canonical event stream.
// Tracing is opt-in: the hooks it feeds stay nil until the ring is
// handed out, so an absent tracer costs nothing.
type Tracer struct {
	ring Shard
}

// NewTracer returns a tracer whose ring holds the given number of
// events, rounded up to a power of two (DefaultShardEvents if <= 0).
func NewTracer(events int) *Tracer {
	if events <= 0 {
		events = DefaultShardEvents
	}
	capPow2 := 1
	for capPow2 < events {
		capPow2 <<= 1
	}
	return &Tracer{ring: Shard{buf: make([]Event, capPow2), mask: uint64(capPow2) - 1}}
}

// Shard returns the tracer's ring; it is never nil.
func (t *Tracer) Shard() *Shard { return &t.ring }

// Dropped returns how many events were overwritten.
func (t *Tracer) Dropped() uint64 { return t.ring.Dropped() }

// Len returns the number of retained events.
func (t *Tracer) Len() int { return t.ring.Len() }

// Reset forgets all recorded events.
func (t *Tracer) Reset() { t.ring.reset() }

// Events returns the retained events in canonical order: ascending sim
// time, then wall time, then record order. The order is deterministic
// for a deterministic simulation, so exported traces diff cleanly across
// runs.
func (t *Tracer) Events() []Event {
	out := t.ring.events(nil)
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].At != out[b].At {
			return out[a].At < out[b].At
		}
		return out[a].Wall < out[b].Wall
	})
	return out
}
