// Command hh-diff compares two runs and gates regressions.
//
// It accepts either two run artifacts (written by `hyperhammer
// -artifact` / `hh-tables -artifact`, or a committed baseline under
// testdata/baselines/) or two benchmark documents (BENCH_*.json from
// hh-benchjson); the file kind is auto-detected. Because the
// simulation clock is simulated and runs are seed-deterministic,
// simulated figures are compared exactly by default — any drift means
// behavior changed — while wall-clock ns/op gets a generous band.
//
// Exit status: 0 when every figure is within tolerance, 1 when any
// drifted beyond it, 2 on usage or read errors.
//
// Usage:
//
//	hh-diff old.json new.json
//	hh-diff -sim-tol 0 -count-tol 0 testdata/baselines/short-seed4.json run.json
//	hh-diff -bench-tol 0.5 BENCH_old.json BENCH_new.json
//	hh-diff -host-tol 0.5 old.json new.json   # gate plan host timings at ±50%
//	hh-diff -all old.json new.json     # list in-tolerance rows too
//
// The plan section (host-cost schedule) is special: host wall-clock is
// non-deterministic, so its shape (unit count, per-unit completion)
// compares exactly under -count-tol while its durations compare under
// -host-tol, whose default of 1.0 lists them without ever gating.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"hyperhammer/internal/benchfmt"
	"hyperhammer/internal/runartifact"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hh-diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tol      = runartifact.DefaultTolerances()
		all      = fs.Bool("all", false, "print every compared figure, not just those beyond tolerance")
		simTol   = fs.Float64("sim-tol", tol.SimFrac, "relative tolerance on simulated-time figures")
		simAbs   = fs.Float64("sim-abs", tol.SimAbs, "absolute tolerance on simulated-time figures (seconds)")
		countTol = fs.Float64("count-tol", tol.CountFrac, "relative tolerance on counters and outcomes")
		countAbs = fs.Float64("count-abs", tol.CountAbs, "absolute tolerance on counters and outcomes")
		benchTol = fs.Float64("bench-tol", tol.BenchFrac, "relative tolerance on benchmark ns/op")
		hostTol  = fs.Float64("host-tol", tol.HostFrac, "relative tolerance on plan host-time figures (1.0 lists without gating)")
		hostAbs  = fs.Float64("host-abs", tol.HostAbs, "absolute tolerance on plan host-time figures (seconds)")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: hh-diff [flags] old.json new.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	tol.SimFrac, tol.SimAbs = *simTol, *simAbs
	tol.CountFrac, tol.CountAbs = *countTol, *countAbs
	tol.BenchFrac = *benchTol
	tol.HostFrac, tol.HostAbs = *hostTol, *hostAbs
	fail := func(err error) int {
		fmt.Fprintln(stderr, "hh-diff:", err)
		return 2
	}

	oldPath, newPath := fs.Arg(0), fs.Arg(1)
	artOld, benchOld, err := load(oldPath)
	if err != nil {
		return fail(err)
	}
	artNew, benchNew, err := load(newPath)
	if err != nil {
		return fail(err)
	}

	var d *runartifact.Diff
	switch {
	case artOld != nil && artNew != nil:
		if notice := configNotice(artOld, artNew); notice != "" {
			fmt.Fprintln(stdout, notice)
		}
		d = runartifact.Compare(artOld, artNew, tol)
	case benchOld != nil && benchNew != nil:
		d = runartifact.CompareBench(benchOld, benchNew, tol)
	default:
		return fail(fmt.Errorf("%s and %s are different document kinds (artifact vs bench)", oldPath, newPath))
	}

	if *all || d.Regressed() {
		fmt.Fprint(stdout, d.Table(!*all).String())
	}
	fmt.Fprintln(stdout, d.Summary())
	if d.Regressed() {
		return 1
	}
	return 0
}

// configNotice returns the one-line context printed when the two runs
// claim different simulated inputs: figure drift is then expected
// configuration divergence, not necessarily a regression. Empty for
// same-config comparisons, and never a gating change — the tolerances
// still decide the exit status alone. Hashes are recomputed for
// artifacts written before the header carried them.
func configNotice(a, b *runartifact.Artifact) string {
	oldHash, newHash := a.ConfigHash, b.ConfigHash
	if oldHash == "" {
		oldHash = a.ComputeConfigHash()
	}
	if newHash == "" {
		newHash = b.ComputeConfigHash()
	}
	if oldHash == newHash {
		return ""
	}
	return fmt.Sprintf("comparing same-config runs? no (config %s vs %s): expect figure drift from the config change", oldHash, newHash)
}

// load reads path as a run artifact or a benchmark document. Exactly
// one of the returns is non-nil on success.
//
// The kind is sniffed before full decoding so a damaged file is
// reported for what it is: a truncated artifact used to fall through
// to the bench decoder and surface as a baffling "not a bench
// document" error.
func load(path string) (*runartifact.Artifact, *benchfmt.Output, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var probe struct {
		Version     int             `json:"version"`
		GeneratedAt string          `json:"generatedAt"`
		Benchmarks  json.RawMessage `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, nil, fmt.Errorf("%s: corrupt or truncated JSON: %v", path, err)
	}
	if probe.Version != 0 {
		a, err := runartifact.Read(bytes.NewReader(data))
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		return a, nil, nil
	}
	if probe.GeneratedAt == "" && probe.Benchmarks == nil {
		return nil, nil, fmt.Errorf("%s: neither a run artifact (no version field) nor a bench document", path)
	}
	var out benchfmt.Output
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, nil, fmt.Errorf("%s: corrupt bench document: %v", path, err)
	}
	return nil, &out, nil
}
