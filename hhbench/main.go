// Command hhbench is the repository's benchmark. It runs one workload
// through the simulator's public functions for a fixed host-time
// budget, checks the simulated figures, and prints every metric by
// name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	hhbench -workload campaign -seed 7 -seconds 30 -trace 0
//
// Workloads:
//
//	campaign            paper-scale Table 3 campaign on S1, no telemetry planes
//	campaign-observed   the same campaign with every -artifact plane and the ledger
//	steering            the Table 2 grid on S1, S2 and S3
//
// With -trace 0 the run repeats the workload until -seconds have passed
// and reports the end-to-end metrics (medians over the repetitions).
// With -trace 1 it runs the workload traced (phase sink, CPU profile)
// until -seconds have passed, then once untraced; it reports the
// per-layer metrics and writes the spans and CPU profile under -out. README.md beside this file describes every
// metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"
)

// minSetups is how many set-ups an untraced run times at least, so
// that setup_s is a median even when one repetition fills the run.
const minSetups = 11

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "campaign, campaign-observed or steering")
	seed := flag.Uint64("seed", 1, "workload seed: the simulated hosts' fault models and randomness derive from it")
	seconds := flag.Float64("seconds", 30, "host seconds to measure for")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := flag.String("out", ".bench_build/hhbench-out", "directory for digests, spans and CPU profiles")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *traceFlag, *out); err != nil {
		fmt.Fprintln(os.Stderr, "hhbench:", err)
		os.Exit(2)
	}
}

func run(workload string, seed uint64, seconds float64, traced int, out string) error {
	switch workload {
	case wlCampaign, wlObserved, wlSteering:
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	cfg := config{workload: workload, seed: seed, sc: fullScale()}
	if err := os.MkdirAll(filepath.Join(out, "digests"), 0o755); err != nil {
		return err
	}
	budget := time.Duration(seconds * float64(time.Second))
	fmt.Printf("hhbench: workload %s, seed %d, scale %s, %v budget, trace %d\n", workload, seed, cfg.sc.name, budget, traced)

	var res result
	var lines []string
	var err error
	if traced == 0 {
		res, lines = untracedRun(cfg, budget, out)
	} else {
		res, lines, err = tracedRun(cfg, budget, out)
		if err != nil {
			return err
		}
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	printMetrics(res.Metrics)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func formatSeconds(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// formatCounts renders a repetition's simulated figures in
// countMetrics order, skipping the ones the workload does not produce.
func formatCounts(counts map[string]float64) string {
	var parts []string
	for _, c := range countMetrics {
		if v, ok := counts[c.name]; ok {
			parts = append(parts, fmt.Sprintf("%s=%.6g", c.name, v))
		}
	}
	return strings.Join(parts, " ")
}

// checker accumulates every repetition's output checks for one run.
type checker struct {
	cfg       config
	digest    uint64
	rounds    int
	attempted int
	failed    int
	problems  []string
	accuracy  []string
	notes     []string
}

// add checks one repetition: its own checks, and that its digest
// equals the first repetition's.
func (c *checker) add(r round) {
	c.rounds++
	c.attempted += r.attempted
	failed := r.failed
	c.problems = append(c.problems, r.problems...)
	if c.rounds == 1 {
		c.digest = r.digest
		c.accuracy = r.accuracy
	} else if r.digest != c.digest {
		c.problems = append(c.problems, fmt.Sprintf("repetition %d digest %016x differs from the first %016x", c.rounds, r.digest, c.digest))
		failed = r.attempted
	}
	c.failed += failed
}

// crossCheck compares the run's digest with the one the sibling
// workload recorded for the same seed and scale with the same build,
// if any, and records this run's. campaign and campaign-observed
// simulate the same work, so their digests must agree. build names
// the binary (see buildID): a digest another build recorded is never
// compared, since a change may legitimately move a simulated figure.
// With no build identity the check is skipped.
func (c *checker) crossCheck(out, build string) {
	if c.rounds == 0 || c.cfg.workload == wlSteering {
		return
	}
	if build == "" {
		c.note("digest cross-check skipped: the binary could not be identified")
		return
	}
	path := func(wl string) string {
		return filepath.Join(out, "digests", fmt.Sprintf("%s-%s-seed%d-attempts%d-%s", build, c.cfg.sc.name, c.cfg.seed, c.cfg.sc.attempts, wl))
	}
	sibling := wlObserved
	if c.cfg.workload == wlObserved {
		sibling = wlCampaign
	}
	mine := fmt.Sprintf("%016x", c.digest)
	if b, err := os.ReadFile(path(sibling)); err == nil && string(b) != mine {
		c.problems = append(c.problems, fmt.Sprintf("digest %s differs from %s's %s for the same seed and build", mine, sibling, b))
		c.failed = c.attempted
	}
	if err := os.WriteFile(path(c.cfg.workload), []byte(mine), 0o644); err != nil {
		c.problems = append(c.problems, "recording digest: "+err.Error())
	}
}

// buildID names the running binary by a hash of its contents, or
// returns "" if the binary cannot be read.
func buildID() string {
	exe, err := os.Executable()
	if err != nil {
		return ""
	}
	b, err := os.ReadFile(exe)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// buildSeeds are the seeds used while the benchmark was built and
// tuned; a check of the model's accuracy should use others.
const buildSeeds = "1-6, 11 and 21-41"

func buildSeed(s uint64) bool {
	return s <= 6 || s == 11 || (s >= 21 && s <= 41)
}

// note adds an informational line to the run's report.
func (c *checker) note(format string, args ...any) {
	c.notes = append(c.notes, fmt.Sprintf(format, args...))
}

func (c *checker) lines() []string {
	out := []string{fmt.Sprintf("repetitions %d, digest %016x", c.rounds, c.digest)}
	out = append(out, c.notes...)
	out = append(out, c.accuracy...)
	check := "a check seed"
	if buildSeed(c.cfg.seed) {
		check = "NOT a check seed"
	}
	out = append(out, fmt.Sprintf("accuracy: the model is checked only against the paper's published figures; "+
		"seeds %s were used while building this benchmark, so this run's seed %d is %s", buildSeeds, c.cfg.seed, check))
	for _, p := range c.problems {
		out = append(out, "CHECK FAILED: "+p)
	}
	return out
}

func (c *checker) result() result {
	return result{
		Correct:   len(c.problems) == 0 && c.failed == 0 && c.attempted > 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   map[string]metric{},
	}
}

// more reports whether another repetition should start: whether the
// run, at its mean repetition length so far, ends closer to budget
// with one more.
func more(start time.Time, done int, budget time.Duration) bool {
	elapsed := time.Since(start)
	return elapsed+elapsed/time.Duration(2*done) < budget
}

// untracedRun repeats the workload until budget has passed and
// reports the end-to-end metrics as medians over the repetitions.
func untracedRun(cfg config, budget time.Duration, out string) (result, []string) {
	ck := &checker{cfg: cfg}
	var setups, runs []float64
	start := time.Now()
	var rt []runtimeStats
	for ck.rounds == 0 || more(start, ck.rounds, budget) {
		settle()
		rt0 := readRuntime()
		r := runRound(cfg, newSpanLog(), nil)
		rt = append(rt, readRuntime().since(rt0))
		ck.add(r)
		if ck.rounds == 1 {
			ck.note("simulated figures: %s", formatCounts(r.counts))
		}
		setups = append(setups, r.setup.Seconds())
		runs = append(runs, r.run.Seconds())
	}
	ck.note("runtime per repetition (median): %s", medianRuntime(rt))
	for len(setups) < minSetups {
		settle()
		setups = append(setups, setupOnly(cfg).Seconds())
	}
	ck.crossCheck(out, buildID())
	ck.note("setup_s per set-up: %s", formatSeconds(setups))
	ck.note("run_s per repetition: %s", formatSeconds(runs))
	res := ck.result()
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["run_s"] = metric{median(runs), "s"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	return res, ck.lines()
}

// settle collects the previous repetition and returns its memory to
// the operating system, so every repetition starts from the same heap
// and pays the same page faults, as a fresh process would.
func settle() { debug.FreeOSMemory() }
