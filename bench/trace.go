package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed interval of a traced run. Spans of one request share
// a root: the request's span is the Parent of its stage spans.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = a request, the root of its tree
	Name   string `json:"name"`   // <layer>.<stage>
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. The two connection
// goroutines of the wire pass each append to their own slice; the
// in-process pass is single-threaded and uses begin/end.
type tracer struct {
	t0    time.Time
	conn  [conns][]span
	local []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// wire records one client-observed request.
func (tr *tracer) wire(c int, kind string, start, end time.Time) {
	tr.conn[c] = append(tr.conn[c], span{Name: "wire." + kind,
		Start: int64(start.Sub(tr.t0)), End: int64(end.Sub(tr.t0))})
}

// begin opens a span of the in-process pass and returns its handle.
func (tr *tracer) begin(name string, parent int) int {
	tr.local = append(tr.local, span{ID: len(tr.local) + 1, Parent: parent, Name: name,
		Start: int64(time.Since(tr.t0))})
	return len(tr.local)
}

// end closes the span and returns its duration in ns.
func (tr *tracer) end(id int) int64 {
	s := &tr.local[id-1]
	s.End = int64(time.Since(tr.t0))
	return s.End - s.Start
}

// spans returns every span with its final id.
func (tr *tracer) spans() []span {
	out := append([]span(nil), tr.local...)
	for c := range tr.conn {
		for _, s := range tr.conn[c] {
			s.ID = len(out) + 1
			out = append(out, s)
		}
	}
	return out
}

// writeSpans stores the spans as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per layer (the span name up to its first dot), each
// span's duration minus the part of it its child spans cover.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	at := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, at), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}
