package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call (the program under test is not edited).
// Parent 0 marks a root; ids start at 1.
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Layer   string `json:"layer"`
	Op      string `json:"op"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) name() string { return s.Layer + "." + s.Op }

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced run: begin and end do nothing and read no clock.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent and returns its id (0 when untraced).
func (r *recorder) begin(parent int32, layer, op string) int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Layer: layer, Op: op})
	// The clock is read last so the bookkeeping above is outside the span.
	r.spans[id-1].StartNs = time.Since(r.t0).Nanoseconds()
	r.mu.Unlock()
	return id
}

// end closes the span and returns its duration in nanoseconds.
func (r *recorder) end(id int32) int64 {
	if r == nil || id == 0 {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	s := &r.spans[id-1]
	s.EndNs = now
	d := now - s.StartNs
	r.mu.Unlock()
	return d
}

func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span in order, its duration minus the part of
// its interval that its direct children cover. Children that overlap
// each other are counted once; a child reaching outside its parent is
// clipped to the parent.
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int32][]iv)
	byID := make(map[int32]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.StartNs, p.StartNs), min(s.EndNs, p.EndNs)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, reach := int64(0), s.StartNs
		for _, c := range ivs {
			if c.hi <= reach {
				continue
			}
			covered += c.hi - max(c.lo, reach)
			reach = c.hi
		}
		self[i] = s.EndNs - s.StartNs - covered
	}
	return self
}

// layerSelfNs sums self time per layer over the spans.
func layerSelfNs(spans []span) map[string]int64 {
	out := make(map[string]int64)
	for i, d := range selfTimes(spans) {
		out[spans[i].Layer] += d
	}
	return out
}

// writeChromeTrace writes the spans in Chrome trace-event JSON (loadable
// in chrome://tracing and Perfetto): one complete ("X") event per span,
// one track per layer, the span's own fields repeated under args.
func writeChromeTrace(w io.Writer, spans []span, meta map[string]any) error {
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args span    `json:"args"`
	}
	tids := make(map[string]int)
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		tid, ok := tids[s.Layer]
		if !ok {
			tid = len(tids) + 1
			tids[s.Layer] = tid
		}
		events = append(events, event{
			Name: s.name(), Cat: s.Layer, Ph: "X",
			Ts: float64(s.StartNs) / 1e3, Dur: float64(s.EndNs-s.StartNs) / 1e3,
			Pid: 1, Tid: tid, Args: s,
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ns",
		"otherData":       meta,
	})
}
