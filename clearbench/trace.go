package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the ID of the enclosing span (0 at the root). Dup marks a call
// the traced run makes a second time, with the arguments of a call nested
// inside another layer's public function, so the inner layer can be timed
// on its own.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Dup    bool   `json:"dup,omitempty"`
	// Cycles and Label carry what a layer metric needs besides the time:
	// simulated cycles for throughput, "packed"/"hooked" for campaigns.
	Cycles int64  `json:"cycles,omitempty"`
	Label  string `json:"label,omitempty"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs execute the same calls without bookkeeping.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// region is an open span; end closes and records it.
type region struct {
	t *tracer
	s span
}

func (t *tracer) begin(name string, parent, op int64) *region {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &region{t: t, s: span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))}}
}

// id returns the span's ID for children (0 when untraced).
func (r *region) id() int64 {
	if r == nil {
		return 0
	}
	return r.s.ID
}

func (r *region) end() {
	if r == nil {
		return
	}
	r.s.End = int64(time.Since(r.t.t0))
	r.t.mu.Lock()
	r.t.spans = append(r.t.spans, r.s)
	r.t.mu.Unlock()
}

// do records f as a span named name.
func (t *tracer) do(name string, parent, op int64, f func()) {
	r := t.begin(name, parent, op)
	f()
	r.end()
}

// dup records f as a duplicated call: its cost is reported apart from the
// tracing overhead. f returns the simulated cycles it covered (0 when that
// does not apply); label qualifies the span for a layer metric.
func (t *tracer) dup(name, label string, parent, op int64, f func() int64) {
	r := t.begin(name, parent, op)
	cycles := f()
	if r != nil {
		r.s.Dup, r.s.Label, r.s.Cycles = true, label, cycles
	}
	r.end()
}

func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(f)
	for {
		var s span
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("read spans %s: %w", path, err)
		}
		out = append(out, s)
	}
}

// layerRow is one line of the traced-run summary.
type layerRow struct {
	Name         string
	Calls        int
	Total, Self  float64 // seconds
	ShareOfWallS float64 // Total over the workload's untraced wall_s
	Dup          bool
}

// summarize groups spans by name. A span's self time is its duration minus
// the part of it its child spans cover.
func summarize(spans []span, wallS float64) []layerRow {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name, Dup: s.Dup}
			rows[s.Name] = r
		}
		r.Calls++
		d := s.seconds()
		r.Total += d
		r.Self += d - covered(s, children[s.ID])
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		if wallS > 0 {
			r.ShareOfWallS = r.Total / wallS
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered returns the seconds of parent's interval covered by the union of
// the children's intervals.
func covered(parent span, kids []span) float64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum, curLo, curHi int64
	open := false
	for _, v := range ivs {
		if open && v.lo <= curHi {
			curHi = max(curHi, v.hi)
			continue
		}
		if open {
			sum += curHi - curLo
		}
		curLo, curHi, open = v.lo, v.hi, true
	}
	if open {
		sum += curHi - curLo
	}
	return float64(sum) / 1e9
}

func printSummary(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "  %-28s %7s %11s %11s %9s\n", "span", "calls", "total_s", "self_s", "%wall_s")
	for _, r := range rows {
		name := r.Name
		if r.Dup {
			name += " (dup)"
		}
		fmt.Fprintf(w, "  %-28s %7d %11.4f %11.4f %8.1f%%\n", name, r.Calls, r.Total, r.Self, 100*r.ShareOfWallS)
	}
}
