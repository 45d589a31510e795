package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Tail sampling. Sampling traces at ingress (head sampling) keeps the ones
// you least need: an SLO is a p99 statement, and the interesting requests
// are the slow and the failed ones — which you only recognize at
// completion. TraceTail keeps exactly those: the slowest-N completed
// requests plus a ring of the most recent errored ones. Offer copies the
// fixed-size ReqTrace value into preallocated slots, so the completion
// path allocates nothing once the tail is warm.

// TraceTail retains the slowest-N and most-recently-errored request traces.
// All methods are safe for concurrent use.
type TraceTail struct {
	mu      sync.Mutex
	slow    []ReqTrace // up to cap(slow); min evicted on overflow
	errs    []ReqTrace // fixed-size ring of errored traces
	errN    int        // live entries in errs
	errPos  int        // next errs write position
	offered uint64
	kept    uint64
}

// NewTraceTail builds a tail sampler keeping the slowCap slowest and the
// errCap most recent errored traces (minimums of 1 each).
func NewTraceTail(slowCap, errCap int) *TraceTail {
	if slowCap < 1 {
		slowCap = 1
	}
	if errCap < 1 {
		errCap = 1
	}
	return &TraceTail{
		slow: make([]ReqTrace, 0, slowCap),
		errs: make([]ReqTrace, errCap),
	}
}

// Offer presents a completed trace for retention. Errored traces always
// enter the error ring (overwriting the oldest); successful traces enter
// the slow set if it has room or they beat its current minimum. The trace
// is copied; the caller may recycle it immediately.
func (t *TraceTail) Offer(tr *ReqTrace) {
	if tr == nil {
		return
	}
	t.mu.Lock()
	t.offered++
	if tr.Err {
		t.errs[t.errPos] = *tr
		t.errPos = (t.errPos + 1) % len(t.errs)
		if t.errN < len(t.errs) {
			t.errN++
		}
		t.kept++
		t.mu.Unlock()
		return
	}
	if len(t.slow) < cap(t.slow) {
		t.slow = append(t.slow, *tr)
		t.kept++
		t.mu.Unlock()
		return
	}
	min := 0
	for i := 1; i < len(t.slow); i++ {
		if t.slow[i].DurNs() < t.slow[min].DurNs() {
			min = i
		}
	}
	if tr.DurNs() > t.slow[min].DurNs() {
		t.slow[min] = *tr
		t.kept++
	}
	t.mu.Unlock()
}

// Stats reports how many traces were offered and how many were retained
// (retention includes overwrites of previously retained traces).
func (t *TraceTail) Stats() (offered, kept uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.offered, t.kept
}

// Snapshot copies the retained traces: errored first (oldest to newest),
// then the slow set ordered slowest-first.
func (t *TraceTail) Snapshot() []ReqTrace {
	t.mu.Lock()
	out := make([]ReqTrace, 0, t.errN+len(t.slow))
	for i := 0; i < t.errN; i++ {
		// Oldest entry sits at errPos when the ring is full, at 0 otherwise.
		idx := i
		if t.errN == len(t.errs) {
			idx = (t.errPos + i) % len(t.errs)
		}
		out = append(out, t.errs[idx])
	}
	slowAt := len(out)
	out = append(out, t.slow...)
	t.mu.Unlock()
	sort.Slice(out[slowAt:], func(i, j int) bool {
		return out[slowAt+i].DurNs() > out[slowAt+j].DurNs()
	})
	return out
}

// reqSpanJSON is a span's JSON exposition shape. Lane and width are
// present only on spans that sat in a panel (Width > 0), so lane 0 is
// exported as 0 and the -1 "not applicable" sentinel never is.
type reqSpanJSON struct {
	Kind  string `json:"kind"`
	Lane  *int16 `json:"lane,omitempty"`
	Width int16  `json:"width,omitempty"`
	Start int64  `json:"start_ns,omitempty"`
	DurNs int64  `json:"dur_ns"`
}

// reqTraceJSON is a trace's JSON exposition shape.
type reqTraceJSON struct {
	TraceID string        `json:"trace_id"`
	SpanID  string        `json:"span_id"`
	Parent  string        `json:"parent_id,omitempty"`
	Model   string        `json:"model"`
	StartNs int64         `json:"start_ns"`
	DurNs   int64         `json:"dur_ns"`
	Err     bool          `json:"error,omitempty"`
	Steps   int32         `json:"steps"`
	Dropped int           `json:"spans_dropped,omitempty"`
	Spans   []reqSpanJSON `json:"spans"`
}

func traceJSON(tr *ReqTrace) reqTraceJSON {
	doc := reqTraceJSON{
		TraceID: tr.ID.String(),
		SpanID:  tr.Span.String(),
		Model:   tr.Model,
		StartNs: tr.Start,
		DurNs:   tr.DurNs(),
		Err:     tr.Err,
		Steps:   tr.Steps,
		Dropped: tr.Dropped(),
		Spans:   make([]reqSpanJSON, 0, len(tr.Spans())),
	}
	if !tr.Parent.IsZero() {
		doc.Parent = tr.Parent.String()
	}
	for _, sp := range tr.Spans() {
		js := reqSpanJSON{Kind: sp.Kind.String(), Start: sp.Start, DurNs: sp.Dur}
		if sp.Width > 0 {
			js.Lane, js.Width = &sp.Lane, sp.Width
		}
		doc.Spans = append(doc.Spans, js)
	}
	return doc
}

// WriteJSON writes the retained traces as an indented JSON array — the
// /debug/traces endpoint's default format.
func (t *TraceTail) WriteJSON(w io.Writer) error {
	snap := t.Snapshot()
	docs := make([]reqTraceJSON, 0, len(snap))
	for i := range snap {
		docs = append(docs, traceJSON(&snap[i]))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(docs)
}

// chromeEvent is one Chrome trace-event ("X" = complete event). Timestamps
// and durations are microseconds per the format spec.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome writes the retained traces in Chrome trace-event format —
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Each request
// renders as one track (tid) carrying its request span plus child spans;
// zero-duration accumulated spans (kernel time) anchor at request start.
func (t *TraceTail) WriteChrome(w io.Writer) error {
	snap := t.Snapshot()
	events := make([]chromeEvent, 0, 8*len(snap))
	for i := range snap {
		tr := &snap[i]
		events = append(events, chromeEvent{
			Name: "request", Cat: "request", Ph: "X",
			Ts: float64(tr.Start) / 1e3, Dur: float64(tr.DurNs()) / 1e3,
			Pid: 1, Tid: i + 1,
			Args: map[string]any{
				"trace_id": tr.ID.String(),
				"model":    tr.Model,
				"error":    tr.Err,
				"steps":    tr.Steps,
			},
		})
		for _, sp := range tr.Spans() {
			start := sp.Start
			if start == 0 {
				start = tr.Start
			}
			ev := chromeEvent{
				Name: sp.Kind.String(), Cat: "span", Ph: "X",
				Ts: float64(start) / 1e3, Dur: float64(sp.Dur) / 1e3,
				Pid: 1, Tid: i + 1,
			}
			if sp.Width > 0 {
				ev.Args = map[string]any{
					"lane": sp.Lane, "width": sp.Width,
				}
			}
			events = append(events, ev)
		}
	}
	if _, err := fmt.Fprint(w, "{\"traceEvents\":"); err != nil {
		return err
	}
	if err := json.NewEncoder(w).Encode(events); err != nil {
		return err
	}
	_, err := fmt.Fprint(w, "}")
	return err
}
