package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of host (wall-clock) time. Spans the
// benchmark opens around its calls into the simulator and the
// program's own attack.* phase spans, stamped with host time by
// phaseSink, share one tree.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Calls is how many calls into the layer the span covers (a loop
	// of MapDMA calls is one span).
	Calls   int     `json:"calls"`
	StartS  float64 `json:"start_s"`
	Seconds float64 `json:"seconds"`
	// SelfS is Seconds minus the part of the interval child spans
	// cover; filled in by selfTimes.
	SelfS float64 `json:"self_s"`

	start time.Time
}

// spanLog keeps every span of a run in memory; it is written out once,
// when the run ends.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (l *spanLog) begin(parent int, name string) int {
	now := time.Now()
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Name: name,
		StartS: now.Sub(l.origin).Seconds(), start: now,
	})
	return len(l.spans)
}

// end closes span id, crediting it with calls layer calls, and
// returns its duration.
func (l *spanLog) end(id, calls int) time.Duration {
	s := &l.spans[id-1]
	d := time.Since(s.start)
	s.Seconds = d.Seconds()
	s.Calls = calls
	return d
}

// selfTimes fills in every span's self time. Children of one span
// run in sequence, so their durations add without overlap.
func (l *spanLog) selfTimes() {
	child := make([]float64, len(l.spans)+1)
	for _, s := range l.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.Seconds
		}
	}
	for i := range l.spans {
		l.spans[i].SelfS = l.spans[i].Seconds - child[l.spans[i].ID]
	}
}

// spanTotal is the summed host time and call count of every span of
// one name.
type spanTotal struct {
	Seconds float64
	Self    float64
	Calls   int
	Spans   int
}

func (l *spanLog) totals() map[string]spanTotal {
	l.selfTimes()
	out := map[string]spanTotal{}
	for _, s := range l.spans {
		t := out[s.Name]
		t.Seconds += s.Seconds
		t.Self += s.SelfS
		t.Calls += s.Calls
		t.Spans++
		out[s.Name] = t
	}
	return out
}

// names returns the distinct span names in first-seen order.
func (l *spanLog) names() []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range l.spans {
		if !seen[s.Name] {
			seen[s.Name] = true
			out = append(out, s.Name)
		}
	}
	return out
}

// writeFile writes the spans as one JSON document.
func (l *spanLog) writeFile(path string) error {
	l.selfTimes()
	b, err := json.MarshalIndent(map[string]any{"spans": l.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
