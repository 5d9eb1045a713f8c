// Package telemetry bundles the recording planes every layer threads:
// the trace recorder, the metrics registry, the introspection plane,
// the flip-provenance recorder, the determinism ledger and the cost
// profiler. Hosts, attack configurations and experiment options embed
// one Planes value instead of carrying each plane as its own field,
// so a plane cannot be forwarded at one site and dropped at another.
package telemetry

import (
	"hyperhammer/internal/forensics"
	"hyperhammer/internal/inspect"
	"hyperhammer/internal/ledger"
	"hyperhammer/internal/metrics"
	"hyperhammer/internal/profile"
	"hyperhammer/internal/trace"
)

// Planes is the set of recorders a run observes through. Every field
// is nil-safe, so the zero value records nothing.
type Planes struct {
	// Trace, when non-nil, receives structured events and phase spans.
	Trace *trace.Recorder
	// Metrics, when non-nil, receives counters, gauges and histograms;
	// a host binds it to its simulated clock at boot.
	Metrics *metrics.Registry
	// Inspect, when non-nil, is the hardware introspection plane: DRAM
	// heatmaps, layout censuses and watchpoint alerts.
	Inspect *inspect.Inspector
	// Forensics, when non-nil, records each flip's lineage and each
	// attempt's outcome.
	Forensics *forensics.Recorder
	// Ledger, when non-nil, folds every deterministic stream into
	// rolling fingerprints sealed in simulated-time epochs.
	Ledger *ledger.Recorder
	// Profile, when non-nil, folds the span trace into a per-phase
	// simulated-time cost profile. A host booted on these planes
	// attaches it to Trace.
	Profile *profile.Builder
}

// Scoped returns one unit's private planes, for a unit that runs
// concurrently with others and is folded back with Absorb. A plane
// the receiver lacks stays nil in the unit, with two exceptions: the
// profiler and the introspection plane read the unit's own trace and
// registry, so either one gives the unit both.
func (p Planes) Scoped() Planes {
	u := Planes{
		Inspect:   p.Inspect.Scoped(),
		Forensics: p.Forensics.Scoped(),
		Ledger:    p.Ledger.Scoped(),
	}
	if p.Trace != nil || p.Profile != nil || p.Inspect != nil {
		u.Trace = trace.NewCapture()
	}
	if p.Metrics != nil || p.Profile != nil || p.Inspect != nil {
		u.Metrics = metrics.New()
	}
	if p.Profile != nil {
		// Attached here, not only at host boot, because some units
		// (DRAMDig) open spans without booting a host.
		u.Profile = profile.NewBuilder(u.Metrics)
		u.Trace.SetNamedSink("profile", u.Profile.Consume)
	}
	return u
}

// Absorb folds a completed unit's planes, made by Scoped, into the
// receiver: the captured trace replays through the shared recorder
// (span IDs re-based, order preserved), then the unit's cost profile,
// metrics, introspection, forensics and ledger are absorbed in that
// order. Folding units in declaration order makes every plane
// byte-identical at any worker count.
func (p Planes) Absorb(u Planes, name string) {
	p.Trace.Absorb(u.Trace)
	p.Profile.Absorb(u.Profile.Snapshot())
	p.Metrics.Absorb(u.Metrics.Snapshot())
	p.Inspect.Absorb(u.Inspect, name)
	p.Forensics.Absorb(u.Forensics, name)
	p.Ledger.Absorb(u.Ledger, name)
}
