package runartifact

import (
	"fmt"
	"sort"
	"strings"

	"hyperhammer/internal/benchfmt"
	"hyperhammer/internal/report"
)

// Tolerances bounds how far two artifacts may drift before hh-diff
// flags them. Simulated metrics default to zero tolerance — the clock
// is simulated and the run is seed-deterministic, so any drift means
// the code's behavior changed. Wall-clock benchmark figures are noisy
// and get a generous relative band.
type Tolerances struct {
	// SimFrac/SimAbs bound per-phase and total simulated-time drift:
	// a delta is within tolerance when |Δ| ≤ max(SimAbs, SimFrac·max(|a|,|b|)).
	SimFrac float64
	SimAbs  float64
	// CountFrac/CountAbs bound counter drift (DRAM activations,
	// hammer rounds, attempt counts, ...), same rule.
	CountFrac float64
	CountAbs  float64
	// BenchFrac bounds benchmark ns/op drift relative to the old
	// value; other bench metrics are informational only.
	BenchFrac float64
	// HostFrac/HostAbs bound the plan section's host-time figures
	// (wall seconds, per-unit run times, critical path). Host time is
	// real wall clock — noisy by nature and legitimately different
	// across -parallel settings — so the default is HostFrac = 1.0,
	// which under the max(|a|,|b|)-relative rule never flags
	// non-negative durations: plan durations are listed for the
	// record, and only gate when the caller tightens -host-tol. The
	// plan's *shape* (unit count, per-unit presence) always compares
	// at the exact count tolerance.
	HostFrac float64
	HostAbs  float64
}

// DefaultTolerances: exact on everything simulated, ±30% on ns/op,
// host durations listed but not gated.
func DefaultTolerances() Tolerances {
	return Tolerances{BenchFrac: 0.30, HostFrac: 1.0}
}

// Delta is one compared figure.
type Delta struct {
	// Kind groups the row: "run" (headline), "phase" (profile path),
	// "counter", "outcome", a section name from the section table, or
	// "bench".
	Kind string `json:"kind"`
	// Key identifies the figure within its kind (span path, metric
	// name+labels, benchmark name).
	Key string `json:"key"`
	// A and B are the old and new values; Delta = B − A.
	A     float64 `json:"a"`
	B     float64 `json:"b"`
	Delta float64 `json:"delta"`
	// Flagged reports the delta exceeded its tolerance.
	Flagged bool `json:"flagged,omitempty"`
}

// Frac returns the relative change of the delta against the larger
// magnitude (0 when both sides are 0).
func (d Delta) Frac() float64 {
	base := abs(d.A)
	if b := abs(d.B); b > base {
		base = b
	}
	if base == 0 {
		return 0
	}
	return abs(d.Delta) / base
}

// Diff is the comparison of two artifacts (or bench documents).
type Diff struct {
	// Deltas lists every compared figure, keys sorted within each
	// kind, kinds in run/phase/counter/outcome/section-table order (or
	// bench rows alone for two bench documents).
	Deltas []Delta `json:"deltas"`
	// Flagged counts deltas beyond tolerance; nonzero means the runs
	// diverged and the gate should fail.
	Flagged int `json:"flagged"`
}

// Regressed reports whether any figure drifted beyond tolerance.
func (d *Diff) Regressed() bool { return d.Flagged > 0 }

// WithinTol reports |b−a| ≤ max(absTol, frac·max(|a|,|b|)) — the
// single tolerance rule hh-diff applies everywhere, and the one the
// run-history trend engine and hh-hotpath attribute regressions with.
func WithinTol(a, b, frac, absTol float64) bool {
	d := abs(b - a)
	base := abs(a)
	if x := abs(b); x > base {
		base = x
	}
	limit := frac * base
	if absTol > limit {
		limit = absTol
	}
	return d <= limit
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Compare diffs two artifacts figure by figure under the given
// tolerances. It compares headline sim time, per-path profile costs,
// every counter in the metrics snapshot, the outcome table, and every
// telemetry section in the section table.
func Compare(a, b *Artifact, tol Tolerances) *Diff {
	d := &Diff{}
	add := func(kind, key string, va, vb float64, frac, absTol float64) {
		row := Delta{Kind: kind, Key: key, A: va, B: vb, Delta: vb - va}
		if !WithinTol(va, vb, frac, absTol) {
			row.Flagged = true
			d.Flagged++
		}
		d.Deltas = append(d.Deltas, row)
	}

	add("run", "sim_seconds", a.SimSeconds, b.SimSeconds, tol.SimFrac, tol.SimAbs)

	// Per-phase simulated time and activations from the folded profile.
	pa, pb := profileMap(a), profileMap(b)
	for _, key := range unionKeys(pa, pb) {
		if strings.HasSuffix(key, activationsSuffix) {
			add("phase", key, pa[key], pb[key], tol.CountFrac, tol.CountAbs)
		} else {
			add("phase", key, pa[key], pb[key], tol.SimFrac, tol.SimAbs)
		}
	}

	// Every counter in the final snapshot.
	ca, cb := counterMap(a), counterMap(b)
	for _, key := range unionKeys(ca, cb) {
		add("counter", key, ca[key], cb[key], tol.CountFrac, tol.CountAbs)
	}

	// Outcome headline numbers.
	for _, key := range unionKeys(a.Outcome, b.Outcome) {
		add("outcome", key, a.Outcome[key], b.Outcome[key], tol.CountFrac, tol.CountAbs)
	}

	// The telemetry sections, in table order. Deterministic sections
	// compare whenever either side carries them, so a section appearing
	// or vanishing is drift; host sections compare only when both sides
	// carry them, like two bench documents.
	for _, s := range sections {
		ha, hb := s.Has(a), s.Has(b)
		if !(ha && hb) && (s.host || !(ha || hb)) {
			continue
		}
		for _, f := range s.figures {
			frac, absTol := tol.CountFrac, tol.CountAbs
			if f.host {
				frac, absTol = tol.HostFrac, tol.HostAbs
			}
			fa, fb := f.flatten(a), f.flatten(b)
			for _, key := range unionKeys(fa, fb) {
				add(s.Name, key, fa[key], fb[key], frac, absTol)
			}
		}
	}
	return d
}

// CompareBench diffs two plain benchmark documents (BENCH_*.json).
func CompareBench(a, b *benchfmt.Output, tol Tolerances) *Diff {
	d := &Diff{}
	benchDeltas(d, a, b, tol)
	return d
}

func benchDeltas(d *Diff, a, b *benchfmt.Output, tol Tolerances) {
	ba, bb := a.ByName(), b.ByName()
	names := make([]string, 0, len(ba))
	for n := range ba {
		names = append(names, n)
	}
	for n := range bb {
		if _, ok := ba[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		oa, oka := ba[n]
		ob, okb := bb[n]
		if !oka || !okb {
			// A benchmark appearing or disappearing is always flagged.
			d.Deltas = append(d.Deltas, Delta{
				Kind: "bench", Key: n + " ns/op",
				A: oa.Metrics["ns/op"], B: ob.Metrics["ns/op"],
				Delta:   ob.Metrics["ns/op"] - oa.Metrics["ns/op"],
				Flagged: true,
			})
			d.Flagged++
			continue
		}
		va, vb := oa.Metrics["ns/op"], ob.Metrics["ns/op"]
		row := Delta{Kind: "bench", Key: n + " ns/op", A: va, B: vb, Delta: vb - va}
		if !WithinTol(va, vb, tol.BenchFrac, 0) {
			row.Flagged = true
			d.Flagged++
		}
		d.Deltas = append(d.Deltas, row)
	}
}

// counterMap flattens an artifact's counter samples to "name{k=v,...}"
// keys.
func counterMap(a *Artifact) map[string]float64 {
	m := make(map[string]float64, len(a.Metrics.Counters))
	for _, s := range a.Metrics.Counters {
		m[sampleKey(s.Name, s.Labels)] = s.Value
	}
	return m
}

func sampleKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	var parts []string
	for i := 0; i+1 < len(labels); i += 2 {
		parts = append(parts, labels[i]+"="+labels[i+1])
	}
	return name + "{" + strings.Join(parts, ",") + "}"
}

func unionKeys[V any](a, b map[string]V) []string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Table renders the verdict table. When onlyFlagged is set, in-
// tolerance rows are omitted (the usual CI view); otherwise every
// compared figure is listed.
func (d *Diff) Table(onlyFlagged bool) *report.Table {
	t := report.NewTable("run comparison", "kind", "key", "old", "new", "delta", "rel", "verdict")
	for _, row := range d.Deltas {
		if onlyFlagged && !row.Flagged {
			continue
		}
		verdict := "ok"
		if row.Flagged {
			verdict = "FAIL"
		}
		t.AddRow(row.Kind, row.Key,
			formatVal(row.A), formatVal(row.B), formatVal(row.Delta),
			fmt.Sprintf("%+.1f%%", 100*signedFrac(row)), verdict)
	}
	return t
}

// Summary is the one-line verdict.
func (d *Diff) Summary() string {
	if d.Flagged == 0 {
		return fmt.Sprintf("hh-diff: %d figures compared, all within tolerance", len(d.Deltas))
	}
	return fmt.Sprintf("hh-diff: %d of %d figures beyond tolerance", d.Flagged, len(d.Deltas))
}

func signedFrac(d Delta) float64 {
	f := d.Frac()
	if d.Delta < 0 {
		return -f
	}
	return f
}

// formatVal prints values compactly but deterministically: integers
// without a fraction, everything else with enough digits to show the
// drift.
func formatVal(v float64) string {
	if v == float64(int64(v)) && abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}
