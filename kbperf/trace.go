package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one benchmark operation
// share Req; Parent is 0 for the operation's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use: shard legs record from their own goroutines.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// at converts a wall-clock instant to recorder time.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.t0)) }

// add stores a span and returns its ID.
func (r *recorder) add(req, parent int, name string, start, end int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// open starts a span now and returns its ID; close ends it.
func (r *recorder) open(req, parent int, name string) int {
	t := r.at(time.Now())
	return r.add(req, parent, name, t, t)
}

func (r *recorder) close(id int) {
	t := r.at(time.Now())
	r.mu.Lock()
	r.spans[id-1].End = t
	r.mu.Unlock()
}

// get returns a copy of span id.
func (r *recorder) get(id int) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1]
}

// addStages lays durations the program measured internally end to end
// inside parent, starting at parent's start, as child spans. They are
// clipped to the parent so self times never go negative.
func (r *recorder) addStages(req, parent int, start, end int64, names []string, durs []time.Duration) {
	t := start
	for i, d := range durs {
		if d <= 0 {
			continue
		}
		e := t + int64(d)
		if e > end {
			e = end
		}
		r.add(req, parent, names[i], t, e)
		t = e
	}
}

// writeTrace writes every span as one JSON object per line.
func writeTrace(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeTraceFile writes the spans to path.
func writeTraceFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeTrace(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// layer is one row of the layer table.
type layer struct {
	Name  string
	Calls int
	Total time.Duration // sum of span durations
	Self  time.Duration // exclusive wall time, see selfTimes
}

// selfTimes returns each span's exclusive wall time: the part of its
// interval that none of its children covers. Where sibling spans run in
// parallel (shard legs), each instant is split evenly among the siblings
// active at it, so the self times of one operation's spans sum to its
// root span's duration.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for parent, sibs := range children {
		for _, s := range sibs {
			peers := sibs
			if parent == 0 {
				peers = []span{s} // roots of different operations never share time
			}
			cuts := []int64{s.Start, s.End}
			for _, o := range peers {
				cuts = append(cuts, clamp(o.Start, s), clamp(o.End, s))
			}
			for _, c := range children[s.ID] {
				cuts = append(cuts, clamp(c.Start, s), clamp(c.End, s))
			}
			sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
			var own float64
			for i := 1; i < len(cuts); i++ {
				a, b := cuts[i-1], cuts[i]
				if b <= a {
					continue
				}
				if covered(children[s.ID], a, b) {
					continue
				}
				k := 0
				for _, o := range peers {
					if o.Start <= a && o.End >= b {
						k++
					}
				}
				own += float64(b-a) / float64(k)
			}
			self[s.ID] = int64(own)
		}
	}
	return self
}

func clamp(t int64, s span) int64 {
	if t < s.Start {
		return s.Start
	}
	if t > s.End {
		return s.End
	}
	return t
}

// covered reports whether any span in cs covers [a, b].
func covered(cs []span, a, b int64) bool {
	for _, c := range cs {
		if c.Start <= a && c.End >= b {
			return true
		}
	}
	return false
}

// layerTable folds spans into per-name rows, in order of first
// appearance.
func layerTable(spans []span) []layer {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []layer
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, layer{Name: s.Name})
		}
		out[i].Calls++
		out[i].Total += time.Duration(s.dur())
		out[i].Self += time.Duration(self[s.ID])
	}
	return out
}

// renderLayers formats the layer table; ops is the number of benchmark
// operations the spans cover, for per-operation self times.
func renderLayers(rows []layer, ops int) string {
	var b strings.Builder
	var all time.Duration
	for _, r := range rows {
		all += r.Self
	}
	fmt.Fprintf(&b, "%-28s %8s %12s %12s %12s %7s\n", "layer", "calls", "total_ms", "self_ms", "self_ms/op", "share")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %8d %12.3f %12.3f %12.4f %6.1f%%\n", r.Name, r.Calls, ms(r.Total), ms(r.Self),
			ratio(ms(r.Self), float64(ops)), 100*ratio(float64(r.Self), float64(all)))
	}
	return b.String()
}
