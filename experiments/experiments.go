// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 5), plus the Section 6 analyses and a
// set of ablations for the design choices DESIGN.md calls out. Each
// experiment returns both structured data and a formatted table or
// figure, and is driven by the hh-tables command and by the benchmark
// harness in the repository root.
//
// Absolute numbers come from the simulated substrate, so they match
// the paper's *shape* — who wins, by what rough factor, where the
// thresholds sit — rather than its exact values; EXPERIMENTS.md
// records the comparison.
package experiments

import (
	"hyperhammer/internal/hostload"
	"hyperhammer/internal/kvm"
	"hyperhammer/internal/obs"
	"hyperhammer/internal/scenario"
	"hyperhammer/internal/telemetry"
)

// Options control experiment scale and determinism.
type Options struct {
	// Seed drives all randomness.
	Seed uint64
	// Short runs a reduced-scale variant (smaller machines, fewer
	// attempts) for CI; the full scale reproduces the paper's
	// machine sizes.
	Short bool
	// MaxAttempts caps the Table 3 campaigns (0 = scale default).
	MaxAttempts int
	// Parallel is the experiment engine's worker-pool size: how many
	// independent units (hosts) run concurrently. 0 selects GOMAXPROCS.
	// Results are byte-identical at every value — units run against
	// scoped telemetry and are folded in declaration order (see
	// plan.go).
	Parallel int
	// Planes, when set, record every host the experiments boot. Each
	// scheduled unit records into its own Planes.Scoped copy; completed
	// units are absorbed in declaration order, so every plane — the
	// merged trace, the metrics (sim_seconds accumulates across hosts),
	// introspection, forensics, ledger and cost profile — is
	// byte-identical at every Parallel setting (see plan.go).
	telemetry.Planes
	// Obs, when non-nil, is the live observability plane. Concurrent
	// units never drive its sampler directly (their telemetry is
	// scoped); the engine samples the shared registry once per
	// completed unit, tagging the series points with the unit's name.
	Obs *obs.Plane
}

// DefaultOptions returns the full-scale deterministic defaults.
func DefaultOptions() Options { return Options{Seed: 1} }

// System identifies one evaluation setup.
type System = scenario.System

// The paper's three systems (Section 5); see internal/scenario.
const (
	SystemS1 = scenario.S1
	SystemS2 = scenario.S2
	SystemS3 = scenario.S3
)

// spec returns one system's machine at the run's scale.
func (o Options) spec(sys System) scenario.Spec {
	if o.Short {
		return scenario.Get(sys, scenario.Short)
	}
	return scenario.Get(sys, scenario.Full)
}

// shortS1 is the machine the mechanism studies run on whatever the
// run's scale: each isolates a mechanism rather than reproducing a
// paper number.
func shortS1() scenario.Spec { return scenario.Get(SystemS1, scenario.Short) }

// hostConfig is a spec's host for this run: the fault model draws from
// the run seed, the host's own randomness from the seed and the system,
// and the host records into the unit's planes.
func (o Options) hostConfig(sp scenario.Spec) kvm.Config {
	cfg := sp.HostConfig(o.Seed)
	cfg.Seed = o.Seed ^ uint64(sp.System)<<32
	cfg.Planes = o.Planes
	// Intra-host parallelism rides the same -parallel knob as the
	// experiment engine: the DRAM module shards its batched per-bank
	// pass without perturbing any deterministic stream.
	cfg.DRAMShardWorkers = o.Parallel
	return cfg
}

// newHost boots a spec's host and starts its background load (S3's
// OpenStack workload).
func (o Options) newHost(sp scenario.Spec) (*kvm.Host, error) {
	h, err := kvm.NewHost(o.hostConfig(sp))
	if err != nil {
		return nil, err
	}
	if sp.Backend.Load != nil {
		if _, err := hostload.Attach(h.Buddy, *sp.Backend.Load, o.Seed^0x53); err != nil {
			return nil, err
		}
	}
	return h, nil
}
