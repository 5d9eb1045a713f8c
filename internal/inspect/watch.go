package inspect

import (
	"fmt"
	"strings"

	"hyperhammer/internal/metrics"
)

// The watchpoint engine evaluates declarative threshold rules over the
// live machine at sample ticks on the simulated clock. A rule names a
// value — any registry counter or gauge, a rate() over one, or a
// heatmap-derived dram.* value — an operator, and a threshold.
// Everything it reads is seed-deterministic and everything it produces
// is stamped with simulated time, so the alert stream is byte-identical
// across runs and across -parallel worker counts.

// TriggerMode selects when a rule that holds fires an alert.
type TriggerMode string

const (
	// Edge fires once per false→true transition and re-arms when the
	// condition clears — the default for "something happened" rules.
	Edge TriggerMode = "edge"
	// Level fires at every sample tick while the condition holds.
	Level TriggerMode = "level"
)

// Rule is one declarative watchpoint.
type Rule struct {
	// Name identifies the rule in alerts and tables.
	Name string `json:"name"`
	// Metric is the value key: a registry counter/gauge name (or
	// "name{k=v,...}" with labels in sorted order for one labeled
	// series; the bare name sums across labels), a derived dram.* value, or "rate(<key>)" for the
	// per-simulated-second rate of a key between sample ticks.
	Metric string `json:"metric"`
	// Op is one of > >= < <= == !=.
	Op string `json:"op"`
	// Threshold is the compared bound.
	Threshold float64 `json:"threshold"`
	// Mode is Edge (default) or Level.
	Mode TriggerMode `json:"mode,omitempty"`
	// Help explains what firing means.
	Help string `json:"help,omitempty"`
}

// Expr renders the rule's condition.
func (r Rule) Expr() string {
	return fmt.Sprintf("%s %s %g", r.Metric, r.Op, r.Threshold)
}

// DefaultRules is the stock rule set: TRR-relevant row pressure, TRR
// neutralizations, hugepage split onset, applied flips, host machine
// checks, and obs event-bus drops (satellite of the introspection
// plane: silent event loss becomes a visible alert).
func DefaultRules() []Rule {
	return []Rule{
		{
			Name: "dram-row-pressure", Metric: "dram.row_window_activations",
			Op: ">", Threshold: 120_000, Mode: Edge,
			Help: "a row's per-refresh-window activations exceeded the minimum Rowhammer flip threshold",
		},
		{
			Name: "trr-neutralizing", Metric: "dram_trr_neutralized_total",
			Op: ">", Threshold: 0, Mode: Edge,
			Help: "the in-DRAM TRR tracker started neutralizing aggressor rows (mitigation variants)",
		},
		{
			Name: "ept-split-onset", Metric: "rate(ept_splits_total)",
			Op: ">", Threshold: 0, Mode: Edge,
			Help: "hugepages are being demoted to 4 KiB leaf tables (NX-hugepage splits)",
		},
		{
			Name: "flips-applied", Metric: "dram_flips_total",
			Op: ">", Threshold: 0, Mode: Edge,
			Help: "at least one Rowhammer bit flip changed memory contents",
		},
		{
			Name: "host-machine-check", Metric: "host_machine_checks_total",
			Op: ">", Threshold: 0, Mode: Edge,
			Help: "the host crashed on an uncorrectable error or iTLB multihit",
		},
		{
			Name: "obs-bus-drops", Metric: "obs_bus_dropped_total",
			Op: ">", Threshold: 0, Mode: Edge,
			Help: "the observability event bus dropped events on a slow subscriber",
		},
	}
}

// Alert is one fired watchpoint.
type Alert struct {
	// Rule and Expr identify what fired; Unit tags the plan unit the
	// alert came from ("" for a single campaign).
	Rule string `json:"rule"`
	Expr string `json:"expr"`
	Unit string `json:"unit,omitempty"`
	// SimSeconds is when, on the simulated clock.
	SimSeconds float64 `json:"t"`
	// Value is the observed value that crossed the threshold.
	Value float64 `json:"value"`
}

// RuleCount is a per-rule fired total, sorted by rule name.
type RuleCount struct {
	Rule  string `json:"rule"`
	Count uint64 `json:"count"`
}

// AlertsSnapshot is the JSON form served at /api/alerts and embedded
// in run artifacts. Slices are always non-nil.
type AlertsSnapshot struct {
	// Total counts every alert ever fired (Recent is bounded).
	Total uint64 `json:"total"`
	// ByRule breaks the total down per rule.
	ByRule []RuleCount `json:"byRule"`
	// Recent is the bounded alert ring, oldest first.
	Recent []Alert `json:"recent"`
}

// dramKeys maps the derived dram.* value keys to the heatmap fields
// they read. They shadow any registry family of the same name.
var dramKeys = map[string]func(*Heatmap) int64{
	"dram.row_window_activations": func(h *Heatmap) int64 { return h.maxRowWindow },
	"dram.total_activations":      func(h *Heatmap) int64 { return h.totalAct },
	"dram.total_flips":            func(h *Heatmap) int64 { return h.totalFlips },
}

// ruleKey is a rule's value key, resolved once: a heatmap field or a
// registry handle, and whether the rule takes its rate.
type ruleKey struct {
	rate bool
	dram func(*Heatmap) int64
	h    *metrics.Handle
}

// bindRules resolves every rule's value key against reg (nil binds
// only the dram.* keys).
func bindRules(rules []Rule, reg *metrics.Registry) []ruleKey {
	keys := make([]ruleKey, len(rules))
	for i, r := range rules {
		key := r.Metric
		if inner, ok := rateInner(key); ok {
			key, keys[i].rate = inner, true
		}
		if read, ok := dramKeys[key]; ok {
			keys[i].dram = read
		} else {
			keys[i].h = reg.Resolve(key)
		}
	}
	return keys
}

// ruleState tracks one rule's trigger and rate memory between ticks.
type ruleState struct {
	active  bool
	prevVal float64
	prevT   float64
	hasPrev bool
}

// compare applies the rule operator.
func compare(v float64, op string, threshold float64) bool {
	switch op {
	case ">":
		return v > threshold
	case ">=":
		return v >= threshold
	case "<":
		return v < threshold
	case "<=":
		return v <= threshold
	case "==":
		return v == threshold
	case "!=":
		return v != threshold
	default:
		return false
	}
}

// rateInner extracts K from "rate(K)"; ok is false for plain keys.
func rateInner(metric string) (string, bool) {
	if strings.HasPrefix(metric, "rate(") && strings.HasSuffix(metric, ")") {
		return metric[len("rate(") : len(metric)-1], true
	}
	return "", false
}
