package telemetry

import (
	"testing"

	"hyperhammer/internal/forensics"
	"hyperhammer/internal/inspect"
	"hyperhammer/internal/ledger"
	"hyperhammer/internal/metrics"
	"hyperhammer/internal/profile"
	"hyperhammer/internal/trace"
)

// TestScopedRule pins which private recorders a unit gets for each
// shared plane: the profiler and the inspector each pull in a trace
// and a registry, every other plane only its own kind.
func TestScopedRule(t *testing.T) {
	reg := metrics.New()
	cases := []struct {
		name   string
		parent Planes
		want   string // planes present in the unit: T M I F L P
	}{
		{"none", Planes{}, ""},
		{"trace", Planes{Trace: trace.New(nil, 0)}, "T"},
		{"metrics", Planes{Metrics: reg}, "M"},
		{"inspect", Planes{Inspect: inspect.New(inspect.Config{})}, "TMI"},
		{"forensics", Planes{Forensics: forensics.New(forensics.Config{})}, "F"},
		{"ledger", Planes{Ledger: ledger.New(ledger.Config{})}, "L"},
		{"profile", Planes{Profile: profile.NewBuilder(reg)}, "TMP"},
	}
	for _, c := range cases {
		u := c.parent.Scoped()
		got := ""
		for _, p := range []struct {
			on  bool
			tag string
		}{{u.Trace != nil, "T"}, {u.Metrics != nil, "M"}, {u.Inspect != nil, "I"},
			{u.Forensics != nil, "F"}, {u.Ledger != nil, "L"}, {u.Profile != nil, "P"}} {
			if p.on {
				got += p.tag
			}
		}
		if got != c.want {
			t.Errorf("%s: unit planes %q, want %q", c.name, got, c.want)
		}
		if u.Trace != nil && u.Trace == c.parent.Trace || u.Metrics != nil && u.Metrics == c.parent.Metrics {
			t.Errorf("%s: unit shares a recorder with its parent", c.name)
		}
	}
}

// TestAbsorbFoldsUnitProfile: a unit's spans reach the shared profile
// through the unit's own profiler, which Scoped attaches to the unit's
// trace, and Absorb folds them in exactly once.
func TestAbsorbFoldsUnitProfile(t *testing.T) {
	reg := metrics.New()
	parent := Planes{Trace: trace.New(nil, 0), Metrics: reg, Profile: profile.NewBuilder(reg)}
	u := parent.Scoped()
	u.Trace.StartSpan("unit.work").End()
	parent.Absorb(u, "unit")
	p := parent.Profile.Snapshot()
	e, ok := p.Lookup("unit.work")
	if !ok || e.Count != 1 {
		t.Fatalf("profile entry = %+v (found %v), want one unit.work span", e, ok)
	}
	Planes{}.Absorb(Planes{}.Scoped(), "empty") // nil-safe throughout
}
