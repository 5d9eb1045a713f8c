package runartifact

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"slices"
	"strconv"

	"hyperhammer/internal/forensics"
	"hyperhammer/internal/inspect"
	"hyperhammer/internal/ledger"
	"hyperhammer/internal/profile"
	"hyperhammer/internal/telemetry"
)

// figures is one flattening of a section into comparison keys. host
// figures are host wall clock: they compare under the host tolerance
// and never enter a fingerprint; the rest are seed-deterministic and
// compare under the count tolerance, zero by default. A flattening of
// an absent section is empty.
type figures struct {
	host    bool
	flatten func(*Artifact) map[string]float64
}

// Section is one telemetry section of the run bundle. The table
// below is the one place a section is declared: Compare, Fingerprints,
// the obs server's section endpoints and the rendering CLIs loop over
// it and name no section themselves.
type Section struct {
	// Name is the artifact JSON key, the obs endpoint /api/<Name> and
	// the run-history key fingerprint[<Name>].
	Name string
	// View is the CLI that renders the section ("" for none).
	View string
	// Field points at the artifact field holding the section, so one
	// JSON decode fills it from a file or from the live endpoint.
	Field func(*Artifact) any
	// Live is the snapshot /api/<Name> serves from the recording
	// planes; nil when the planes do not hold the section.
	Live func(telemetry.Planes) any

	figures []figures
	// host sections measure the host: they compare only when both
	// artifacts carry them and are never fingerprinted.
	host   bool
	render func(w io.Writer, a *Artifact, width int) error
}

// sections is the section table, in artifact and comparison order.
var sections = []Section{
	{
		Name: "heatmap", View: "hh-top",
		Field:   func(a *Artifact) any { return &a.Heatmap },
		Live:    func(p telemetry.Planes) any { return p.Inspect.HeatmapSnapshot() },
		figures: counts(func(a *Artifact) map[string]float64 { return heatmapMap(a.Heatmap) }),
		render:  text(func(a *Artifact) string { return inspect.RenderHeatmap(*a.Heatmap) }),
	},
	{
		Name: "census", View: "hh-top",
		Field:   func(a *Artifact) any { return &a.Census },
		Live:    func(p telemetry.Planes) any { return p.Inspect.CensusSnapshot() },
		figures: counts(func(a *Artifact) map[string]float64 { return censusMap(a.Census) }),
		render:  text(func(a *Artifact) string { return inspect.RenderCensus(*a.Census) }),
	},
	{
		Name: "alerts", View: "hh-top",
		Field:   func(a *Artifact) any { return &a.Alerts },
		Live:    func(p telemetry.Planes) any { return p.Inspect.AlertsSnapshot() },
		figures: counts(func(a *Artifact) map[string]float64 { return alertsMap(a.Alerts) }),
		render:  text(func(a *Artifact) string { return inspect.RenderAlerts(*a.Alerts) }),
	},
	{
		Name: "forensics", View: "hh-why",
		Field:   func(a *Artifact) any { return &a.Forensics },
		Live:    func(p telemetry.Planes) any { return p.Forensics.Snapshot() },
		figures: counts(func(a *Artifact) map[string]float64 { return forensicsMap(a.Forensics) }),
		render: func(w io.Writer, a *Artifact, _ int) error {
			a.Forensics.WriteSummary(w)
			return nil
		},
	},
	{
		Name:    "ledger",
		Field:   func(a *Artifact) any { return &a.Ledger },
		Live:    func(p telemetry.Planes) any { return p.Ledger.Snapshot() },
		figures: counts(func(a *Artifact) map[string]float64 { return ledgerMap(a.Ledger) }),
	},
	{
		// Served from the run's schedule, not the planes: /api/plan
		// is the obs server's own endpoint.
		Name: "plan", View: "hh-plan", host: true,
		Field: func(a *Artifact) any { return &a.Plan },
		figures: []figures{
			{false, func(a *Artifact) map[string]float64 { return planShapeMap(a.Plan) }},
			{true, func(a *Artifact) map[string]float64 { return planHostMap(a.Plan) }},
		},
		render: func(w io.Writer, a *Artifact, width int) error { return profile.RenderPlan(w, a.Plan, width) },
	},
}

func counts(flatten func(*Artifact) map[string]float64) []figures {
	return []figures{{false, flatten}}
}

// text adapts a renderer that returns its view as a string.
func text(view func(*Artifact) string) func(io.Writer, *Artifact, int) error {
	return func(w io.Writer, a *Artifact, _ int) error {
		_, err := fmt.Fprintln(w, view(a))
		return err
	}
}

// Sections returns the section table in comparison order.
func Sections() []Section { return slices.Clone(sections) }

// View returns the sections the named CLI renders, in table order.
func View(tool string) []Section {
	var out []Section
	for _, s := range sections {
		if s.View == tool {
			out = append(out, s)
		}
	}
	return out
}

// Has reports whether a carries the section.
func (s Section) Has(a *Artifact) bool {
	return !reflect.ValueOf(s.Field(a)).Elem().IsNil()
}

// Carries reports whether a holds any section the named CLI renders.
func (a *Artifact) Carries(tool string) bool {
	return slices.ContainsFunc(View(tool), func(s Section) bool { return s.Has(a) })
}

// Render writes every section the named CLI renders that a carries,
// in table order. width bounds chart columns (0 picks a default).
func (a *Artifact) Render(w io.Writer, tool string, width int) error {
	for _, s := range View(tool) {
		if s.Has(a) {
			if err := s.render(w, a, width); err != nil {
				return err
			}
		}
	}
	return nil
}

// planShapeMap flattens a plan report's deterministic shape: how many
// units were scheduled, and that each declared unit ran and was
// delivered. These must agree exactly across runs of the same matrix
// regardless of -parallel (the worker count itself is configuration,
// not shape, so it is compared as a host figure).
func planShapeMap(p *profile.PlanReport) map[string]float64 {
	m := map[string]float64{}
	if p == nil {
		return m
	}
	m["units"] = float64(len(p.Units))
	b2f := map[bool]float64{true: 1}
	for _, u := range p.Units {
		m["unit["+u.Name+"].started"] = b2f[u.Started]
		m["unit["+u.Name+"].delivered"] = b2f[u.Delivered]
	}
	return m
}

// planHostMap flattens a plan report's host-time figures: headline
// costs, the efficiency line, and per-unit run durations.
func planHostMap(p *profile.PlanReport) map[string]float64 {
	m := map[string]float64{}
	if p == nil {
		return m
	}
	m["host workers"] = float64(p.Workers)
	m["host wall_seconds"] = p.WallSeconds
	m["host cpu_seconds"] = p.CPUSeconds
	m["host busy_seconds"] = p.BusySeconds
	m["host sequential_seconds"] = p.SequentialSeconds
	m["host critical_path_seconds"] = p.CriticalPathSeconds
	m["host max_speedup"] = p.MaxSpeedup
	m["host actual_speedup"] = p.ActualSpeedup
	m["host efficiency"] = p.Efficiency
	for _, u := range p.Units {
		m["host unit["+u.Name+"].run_seconds"] = u.RunSeconds
	}
	return m
}

// heatmapMap flattens a heatmap snapshot to comparison keys: the
// headline totals, per-bank sums, and an FNV-1a fingerprint over the
// full per-bucket grid so any cell-level drift is caught without
// emitting thousands of rows.
func heatmapMap(h *inspect.HeatmapSnapshot) map[string]float64 {
	m := map[string]float64{}
	if h == nil {
		return m
	}
	m["banks"] = float64(h.Banks)
	m["buckets"] = float64(h.Buckets)
	m["total_activations"] = float64(h.TotalActivations)
	m["total_flips"] = float64(h.TotalFlips)
	m["max_row_window"] = float64(h.MaxRowWindowActivations)
	fp := fnv.New64a()
	for bank := 0; bank < len(h.Activations); bank++ {
		var act, flips int64
		for _, c := range h.Activations[bank] {
			act += c
			binary.Write(fp, binary.LittleEndian, c)
		}
		if bank < len(h.Flips) {
			for _, c := range h.Flips[bank] {
				flips += c
				binary.Write(fp, binary.LittleEndian, c)
			}
		}
		m[fmt.Sprintf("bank[%d].activations", bank)] = float64(act)
		m[fmt.Sprintf("bank[%d].flips", bank)] = float64(flips)
	}
	m["grid_fingerprint"] = fold52(fp.Sum64())
	return m
}

// forensicsMap flattens a forensics snapshot to comparison keys: the
// headline totals, the verdict/owner/outcome tables, and an FNV-1a
// fingerprint over the serialized campaign records so any drift in
// per-attempt lineage (causes, flip details, sim times) is caught
// without emitting a row per flip.
func forensicsMap(s *forensics.Snapshot) map[string]float64 {
	m := map[string]float64{}
	if s == nil {
		return m
	}
	m["version"] = float64(s.Version)
	m["campaigns"] = float64(len(s.Campaigns))
	attempts := 0
	for i := range s.Campaigns {
		attempts += len(s.Campaigns[i].Attempts)
	}
	m["attempts"] = float64(attempts)
	m["flips_recorded"] = float64(s.FlipsRecorded)
	m["flips_truncated"] = float64(s.FlipsTruncated)
	for _, r := range s.Verdicts {
		m["verdict["+r.Key+"]"] = float64(r.N)
	}
	for _, r := range s.Owners {
		m["owner["+r.Key+"]"] = float64(r.N)
	}
	for _, r := range s.Outcomes {
		m["outcome["+r.Key+"]"] = float64(r.N)
	}
	if raw, err := json.Marshal(s.Campaigns); err == nil {
		fp := fnv.New64a()
		fp.Write(raw)
		m["campaign_fingerprint"] = fold52(fp.Sum64())
	}
	return m
}

// ledgerMap flattens a determinism-ledger snapshot to comparison keys:
// per unit and stream, the final fingerprint and event count, plus the epoch
// counts. Per-epoch fingerprints are implied by the finals — a run
// whose final fingerprints match at every stream had identical epoch
// trails — so flattening them would only multiply rows; hh-bisect is
// the tool that walks epochs.
func ledgerMap(s *ledger.Snapshot) map[string]float64 {
	m := map[string]float64{}
	if s == nil {
		return m
	}
	m["version"] = float64(s.Version)
	m["epoch_seconds"] = s.EpochSimSeconds
	m["units"] = float64(len(s.Units))
	for _, u := range s.Units {
		prefix := ""
		if u.Unit != "" {
			prefix = u.Unit + "."
		}
		m[prefix+"epochs"] = float64(len(u.Epochs))
		m[prefix+"epochs_truncated"] = float64(u.EpochsTruncated)
		for _, sf := range u.Streams {
			if fp, err := strconv.ParseUint(sf.FP, 16, 64); err == nil {
				m[prefix+sf.Stream+".fp"] = fold52(fp)
			}
			m[prefix+sf.Stream+".count"] = float64(sf.Count)
		}
	}
	return m
}

// censusMap flattens census snapshots to comparison keys.
func censusMap(s *inspect.CensusSnapshot) map[string]float64 {
	m := map[string]float64{}
	inspect.FlattenCensuses(s, func(key string, v float64) { m[key] = v })
	return m
}

// alertsMap flattens the alert table: overall total and per-rule fired
// counts.
func alertsMap(s *inspect.AlertsSnapshot) map[string]float64 {
	m := map[string]float64{}
	if s == nil {
		return m
	}
	m["total"] = float64(s.Total)
	for _, rc := range s.ByRule {
		m["rule["+rc.Rule+"]"] = float64(rc.Count)
	}
	return m
}
