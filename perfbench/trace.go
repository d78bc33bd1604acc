package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public call; the program itself is not instrumented.
type span struct {
	Name   string
	Parent int32 // index of the enclosing span, -1 for a root
	Seq    int32 // injection index within its unit, -1 outside injections
	Start  int64 // ns since the recorder's epoch
	End    int64
}

// recorder keeps spans in memory on the single goroutine that drives the
// traced run; nesting follows begin/end order.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int32
}

// spanCapacity is preallocated so that growing the span buffer does not
// show up in the allocations counted per injection.
const spanCapacity = 1 << 16

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, spanCapacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span nested in the innermost open one.
func (r *recorder) begin(name string, seq int) int32 {
	parent := int32(-1)
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Parent: parent, Seq: int32(seq), Start: r.now()})
	r.open = append(r.open, id)
	return id
}

// end closes the innermost open span, which must be id, and returns its
// duration.
func (r *recorder) end(id int32) time.Duration {
	top := r.open[len(r.open)-1]
	if top != id {
		panic(fmt.Sprintf("perfbench: span %q closed while %q is innermost", r.spans[id].Name, r.spans[top].Name))
	}
	r.open = r.open[:len(r.open)-1]
	r.spans[id].End = r.now()
	return time.Duration(r.spans[id].End - r.spans[id].Start)
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layerTime is one span name's total and self time: self time is the
// span's duration minus the part its child spans cover.
type layerTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// layerTimes sums total and self time per span name, largest self first.
func (r *recorder) layerTimes() []layerTime {
	by := map[string]*layerTime{}
	get := func(name string) *layerTime {
		lt, ok := by[name]
		if !ok {
			lt = &layerTime{Name: name}
			by[name] = lt
		}
		return lt
	}
	for _, s := range r.spans {
		lt := get(s.Name)
		lt.Count++
		lt.Total += s.dur()
		lt.Self += s.dur()
		if s.Parent >= 0 {
			get(r.spans[s.Parent].Name).Self -= s.dur()
		}
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// writeJSON writes the spans as Chrome trace_event JSON (open it in
// Perfetto), one complete event per span.
func (r *recorder) writeJSON(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"traceEvents":[`)
	for i, s := range r.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		err := enc.Encode(event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: 1, Args: map[string]any{"id": i, "parent": s.Parent, "seq": s.Seq}})
		if err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
