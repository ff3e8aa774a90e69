package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one recorded interval of the traced run: a call into one layer,
// with the span that caused it and the request it belongs to. Times are
// offsets from the tracer's start.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = root
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps the spans of the traced run in memory. A nil tracer records
// nothing, which is how the untraced passes run the same code. It is used
// from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: time.Since(t.t0), End: -1,
	})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0)
}

// add records an already-measured span, such as a phase span the engine
// reported through obs.Trace.
func (t *tracer) add(name string, parent, req int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	off := start.Sub(t.t0)
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: off, End: off + d,
	})
}

// write emits every span as one JSON object per line.
func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// layerTime is the self time of every span with one name.
type layerTime struct {
	Count int
	Self  time.Duration
}

// mean returns the mean self time per span.
func (l layerTime) mean() time.Duration {
	if l.Count == 0 {
		return 0
	}
	return l.Self / time.Duration(l.Count)
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover. Unclosed spans are skipped.
func selfTimes(spans []span) map[string]layerTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		self := s.End - s.Start - covered(s, children[s.ID])
		lt := out[s.Name]
		lt.Count++
		lt.Self += self
		out[s.Name] = lt
	}
	return out
}

// covered returns how much of parent's interval the union of the child
// intervals covers, each clipped to the parent.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration = -1, -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}
