package runartifact

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"maps"
	"sort"
	"strconv"
)

// ToolVersion is the release stamp written into every artifact header.
// Bump it when a release intentionally changes simulated figures: the
// run-history trend engine then shows *why* same-config runs diverged
// (code moved, not config).
const ToolVersion = "0.9.0"

// HostOnlyConfigKeys names config entries that describe how a run was
// *executed* rather than what was simulated, so they are excluded from
// ConfigHash (DESIGN fidelity rule 6: host cost never enters a
// deterministic section). "parallel" cannot change any simulated
// figure by construction (the plan engine folds results in declaration
// order), and "selection" is the raw command line, which drags
// host-only flags and output paths into the identity; hh-tables
// records the normalized experiment set under "selected" instead.
var HostOnlyConfigKeys = map[string]bool{
	"parallel":  true,
	"selection": true,
}

// Stamp fills the derived header fields. Write calls it on every
// serialization; runstore.Ingest calls it before indexing.
func (a *Artifact) Stamp() {
	a.ToolVersion = ToolVersion
	a.ConfigHash = a.ComputeConfigHash()
}

// ComputeConfigHash hashes the deterministic config section: tool,
// seed, scale, and the Config map minus HostOnlyConfigKeys, serialized
// as canonical JSON (encoding/json sorts map keys, and the struct
// field order below is fixed). The result is 16 hex characters —
// enough to never collide in a local store while staying readable in
// tables and directory names.
func (a *Artifact) ComputeConfigHash() string {
	cfg := make(map[string]string, len(a.Config))
	for k, v := range a.Config {
		if !HostOnlyConfigKeys[k] {
			cfg[k] = v
		}
	}
	doc := struct {
		Tool   string            `json:"tool"`
		Seed   uint64            `json:"seed"`
		Scale  string            `json:"scale"`
		Config map[string]string `json:"config"`
	}{a.Tool, a.Seed, a.Scale, cfg}
	b, err := json.Marshal(doc)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// ContentHash hashes the deterministic content of the artifact: the
// full bundle minus the fields that legitimately differ between
// byte-identical-figure runs (CreatedAt is wall clock, Plan is host
// cost, Series depends on the live sampling cadence, ToolVersion is a
// release stamp, and HostOnlyConfigKeys describe execution, not
// simulation — hh-tables at -parallel 1 and -parallel 4 produces the
// same hash). Two same-config runs of the same code hash equal — the
// single-value determinism check the run-history store records per
// run, and the visible suffix of every stored run ID.
func (a *Artifact) ContentHash() string {
	c := *a
	c.CreatedAt = ""
	c.ToolVersion = ""
	c.Plan = nil
	c.Series = nil
	cfg := make(map[string]string, len(a.Config))
	for k, v := range a.Config {
		if !HostOnlyConfigKeys[k] {
			cfg[k] = v
		}
	}
	c.Config = cfg
	b, err := json.Marshal(&c)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// Fingerprints folds each deterministic artifact section into one
// FNV-1a figure, keyed by section name: "outcome" (headline sim time
// and campaign outcome), "profile" (per-path sim cost), "counters"
// (the metrics snapshot), and every section of the section table the
// run carried, except the host sections. The flattenings are exactly
// the maps Compare diffs at zero tolerance, so two artifacts with
// equal fingerprints are hh-diff-clean on simulated figures, and a
// drifted section names where the divergence lives without storing
// every figure. Values are folded to 52 bits so they survive float64
// comparison machinery unchanged (like the heatmap grid fingerprint).
func (a *Artifact) Fingerprints() map[string]float64 {
	out := map[string]float64{
		"outcome":  fingerprintMap(outcomeMap(a)),
		"profile":  fingerprintMap(profileMap(a)),
		"counters": fingerprintMap(counterMap(a)),
	}
	for _, s := range sections {
		if s.host || !s.Has(a) {
			continue
		}
		m := map[string]float64{}
		for _, f := range s.figures {
			maps.Copy(m, f.flatten(a))
		}
		out[s.Name] = fingerprintMap(m)
	}
	return out
}

// outcomeMap flattens the headline figures: final sim time plus every
// outcome row.
func outcomeMap(a *Artifact) map[string]float64 {
	m := make(map[string]float64, len(a.Outcome)+1)
	m["sim_seconds"] = a.SimSeconds
	for k, v := range a.Outcome {
		m["outcome["+k+"]"] = v
	}
	return m
}

// activationsSuffix marks a profile path's activation-count figure.
const activationsSuffix = " activations"

// profileMap flattens the folded cost profile: per-path sim seconds
// plus per-path activation counts where nonzero.
func profileMap(a *Artifact) map[string]float64 {
	m := make(map[string]float64, 2*len(a.Profile))
	for _, e := range a.Profile {
		m[e.Path] = e.SimSeconds
		if e.Activations != 0 {
			m[e.Path+activationsSuffix] = float64(e.Activations)
		}
	}
	return m
}

// fingerprintMap hashes a figure map order-independently: sorted
// key=value lines through FNV-1a, value formatted with the shortest
// round-trippable float encoding.
func fingerprintMap(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fp := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(fp, "%s=%s\n", k, strconv.FormatFloat(m[k], 'g', -1, 64))
	}
	return fold52(fp.Sum64())
}

// fold52 folds a 64-bit fingerprint to 52 bits, so it survives float64
// comparison machinery unchanged.
func fold52(fp uint64) float64 { return float64(fp % (1 << 52)) }
