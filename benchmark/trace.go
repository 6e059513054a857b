package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one interval at a layer boundary. Spans of one request share
// the request number; parent is the id of the span that caused it, or 0
// for a request's root. Times are nanoseconds since the tracer started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the benchmark
// ends. It is used from one goroutine. Every method is a no-op on the nil
// tracer, so the plain passes run the same code with tracing off.
type tracer struct {
	t0      time.Time
	spans   []span
	stack   []int // ids of the open spans, innermost last
	request int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginRequest opens the root span of the next request.
func (t *tracer) beginRequest() int {
	if t == nil {
		return 0
	}
	t.request++
	return t.begin("request")
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: t.request, Name: name,
		StartNS: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].EndNS = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// slowdowns returns the machine's slowdown while each request ran.
func (t *tracer) slowdowns(sp *speedometer) []float64 {
	out := make([]float64, t.request)
	for _, s := range t.spans {
		if s.Parent == 0 {
			out[s.Request-1] = sp.slowdown(t.t0.Add(time.Duration(s.StartNS)), t.t0.Add(time.Duration(s.EndNS)))
		}
	}
	return out
}

// selfTimes returns, per request, each span name's self time in nominal
// milliseconds: a span's duration minus the part its children cover, over
// the request's slowdown. Spans are sequential within a request, so
// children never overlap. The span file keeps the raw nanoseconds.
func (t *tracer) selfTimes(sp *speedometer) []map[string]float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += float64(s.EndNS-s.StartNS) / 1e6
		if s.Parent != 0 {
			self[s.Parent-1] -= float64(s.EndNS-s.StartNS) / 1e6
		}
	}
	slow := t.slowdowns(sp)
	out := make([]map[string]float64, t.request)
	for i := range out {
		out[i] = map[string]float64{}
	}
	for i, s := range t.spans {
		out[s.Request-1][s.Name] += self[i] / slow[s.Request-1]
	}
	return out
}

// requestWalls returns each request's root-span duration in nominal
// milliseconds.
func (t *tracer) requestWalls(sp *speedometer) []float64 {
	slow := t.slowdowns(sp)
	walls := make([]float64, t.request)
	for _, s := range t.spans {
		if s.Parent == 0 {
			walls[s.Request-1] = float64(s.EndNS-s.StartNS) / 1e6 / slow[s.Request-1]
		}
	}
	return walls
}

func (t *tracer) writeFile(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
