package main

import (
	"sort"
	"strings"
	"time"

	"hyperhammer"
	"hyperhammer/internal/trace"
)

// sinkName is the benchmark's named tap on the program's trace
// recorder; it leaves the cost profiler's and the observability
// plane's taps alone.
const sinkName = "hhbench.phases"

// phaseSink stamps the program's attack.* span events with host time.
// The events carry the simulated clock; the sink adds the wall clock
// at which each arrived, so every campaign phase gets host seconds
// next to the simulated seconds the cost profiler reports.
type phaseSink struct {
	log *spanLog
	// parent is the benchmark span the campaign runs under; attack
	// spans without an attack parent nest there.
	parent int
	// open maps a program span id to its span in log.
	open map[uint64]int
	// attempts holds the host duration of every attack.attempt span.
	attempts []time.Duration
}

func newPhaseSink() *phaseSink { return &phaseSink{open: map[uint64]int{}} }

func (p *phaseSink) attach(rec *hyperhammer.TraceRecorder, log *spanLog) {
	p.log = log
	rec.SetNamedSink(sinkName, p.consume)
}

func (p *phaseSink) consume(ev trace.Event) {
	if ev.Kind != "span.start" && ev.Kind != "span.end" {
		return
	}
	name, _ := ev.Data["name"].(string)
	if !strings.HasPrefix(name, "attack.") {
		return
	}
	id := spanID(ev.Data["span"])
	if ev.Kind == "span.start" {
		parent, ok := p.open[spanID(ev.Data["parent"])]
		if !ok {
			parent = p.parent
		}
		p.open[id] = p.log.begin(parent, name)
		return
	}
	sid, ok := p.open[id]
	if !ok {
		return
	}
	delete(p.open, id)
	d := p.log.end(sid, 1)
	if name == "attack.attempt" {
		p.attempts = append(p.attempts, d)
	}
}

func spanID(v any) uint64 {
	switch x := v.(type) {
	case uint64:
		return x
	case int:
		return uint64(x)
	case int64:
		return uint64(x)
	case float64:
		return uint64(x)
	}
	return 0
}

// quantile returns the q-quantile of ds by linear interpolation
// between closest ranks.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}
