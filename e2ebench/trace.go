package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call into a layer's public function, recorded by the harness
// around the call (spans inside the program are a later change). Spans of
// one op share req; parent is the id of the span that caused this one, 0
// for the op itself.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced phases run the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; the zero value (from a nil tracer) is inert.
type spanRef struct {
	t   *tracer
	idx int
	id  int64
	req int64
}

// start opens a root span for request req.
func (t *tracer) start(req int64, name, layer string) spanRef {
	return t.open(0, req, name, layer)
}

// child opens a span caused by s.
func (s spanRef) child(name, layer string) spanRef {
	return s.t.open(s.id, s.req, name, layer)
}

func (t *tracer) open(parent, req int64, name, layer string) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Layer: layer, StartNS: now})
	return spanRef{t: t, idx: len(t.spans) - 1, id: id, req: req}
}

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.idx].EndNS = now
	s.t.mu.Unlock()
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover. Children may overlap each other and
// may stick out of the parent; only covered time inside the parent counts.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// medianSelfUS is the median self time, in µs, of the spans called name.
func medianSelfUS(spans []span, name string) float64 {
	self := selfTimes(spans)
	var v []float64
	for _, s := range spans {
		if s.Name == name {
			v = append(v, float64(self[s.ID])/1e3)
		}
	}
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
