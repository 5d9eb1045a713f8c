package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// spanMetrics maps each benchmark span to the per-layer metric prefix
// it reports under (<prefix>_s and <prefix>_calls).
var spanMetrics = []string{
	"kvm.new_host", "attack.run_campaign", "runartifact.build",
	"kvm.create_vm", "guest.alloc_huge", "viommu.map_dma", "virtio.release",
	"ept.exec_split", "kvm.ept_reuse",
}

// countMetrics are the exact deterministic figures of a repetition.
// A figure a workload does not produce reads 0.
var countMetrics = []struct{ name, unit string }{
	{"sim.hours", "h"},
	{"attack.attempts", "count"},
	{"attack.escapes", "count"},
	{"attack.escape_ratio", "ratio"},
	{"attack.escape_ratio_base", "count"},
	{"attack.profiled_bits", "count"},
	{"kvm.flips_applied", "count"},
	{"kvm.released_blocks", "count"},
	{"steer.released", "count"},
	{"steer.ept_pages", "count"},
	{"steer.reused", "count"},
	{"steer.rn", "ratio"},
	{"steer.re", "ratio"},
}

// tracedRun runs the workload traced until budget has passed (the
// program's trace recorder carries the phase sink, and each traced
// repetition runs under a CPU profile), then once untraced as the
// reference the tracing overhead and the runtime figures are read
// from. It reports the per-layer metrics, per traced repetition, and
// writes the spans, the first CPU profile and the module fold under
// out.
func tracedRun(cfg config, budget time.Duration, out string) (result, []string, error) {
	ck := &checker{cfg: cfg}
	log := newSpanLog()
	fold := cpuFold{NS: map[string]int64{}}
	var tracedRuns []float64
	var attempts []time.Duration
	var firstProfile []byte
	start := time.Now()
	for len(tracedRuns) == 0 || more(start, len(tracedRuns), budget) {
		settle()
		var phases *phaseSink
		if cfg.workload != wlSteering {
			phases = newPhaseSink()
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return result{}, nil, err
		}
		r := runRound(cfg, log, phases)
		pprof.StopCPUProfile()
		ck.add(r)
		tracedRuns = append(tracedRuns, r.run.Seconds())
		if phases != nil {
			attempts = append(attempts, phases.attempts...)
		}
		f, err := foldProfile(prof.Bytes())
		if err != nil {
			return result{}, nil, err
		}
		fold.add(f)
		if firstProfile == nil {
			firstProfile = prof.Bytes()
		}
	}

	settle()
	rt0 := readRuntime()
	ref := runRound(cfg, newSpanLog(), nil)
	rt := readRuntime().since(rt0)
	ck.add(ref)
	ck.crossCheck(out, buildID())
	n := float64(len(tracedRuns))

	res := ck.result()
	m := res.Metrics
	totals := log.totals()
	for _, name := range spanMetrics {
		t := totals[name]
		m[name+"_s"] = metric{t.Seconds / n, "s"}
		m[name+"_calls"] = metric{float64(t.Calls) / n, "count"}
	}
	attempt := totals["attack.attempt"].Seconds
	steer := totals["attack.steer"].Seconds
	exploit := totals["attack.exploit"].Seconds
	m["attack.profile_s"] = metric{totals["attack.profile"].Seconds / n, "s"}
	m["attack.steer_s"] = metric{steer / n, "s"}
	m["attack.exploit_s"] = metric{exploit / n, "s"}
	m["attack.respawn_s"] = metric{(attempt - steer - exploit) / n, "s"}
	m["attack.attempt_p50_ms"] = metric{ms(quantile(attempts, 0.5)), "ms"}
	m["attack.attempt_p90_ms"] = metric{ms(quantile(attempts, 0.9)), "ms"}
	m["attack.attempt_samples"] = metric{float64(len(attempts)), "count"}

	for _, mod := range modules {
		ns := fold.NS[mod]
		m["cpu."+mod+"_s"] = metric{float64(ns) / 1e9 / n, "s"}
		m["cpu."+mod+"_share"] = metric{ratio(float64(ns), float64(fold.TotalNS)), "ratio"}
	}
	m["cpu.total_s"] = metric{float64(fold.TotalNS) / 1e9 / n, "s"}
	m["cpu.samples"] = metric{float64(fold.Samples), "count"}

	m["runtime.alloc_mb"] = metric{rt.allocBytes / (1 << 20), "MB"}
	m["runtime.alloc_objects_k"] = metric{rt.allocObjects / 1e3, "count"}
	m["runtime.gc_cycles"] = metric{rt.gcCycles, "count"}
	m["runtime.gc_pause_ms"] = metric{rt.gcPauseS * 1e3, "ms"}

	for _, c := range countMetrics {
		m[c.name] = metric{ref.counts[c.name], c.unit}
	}

	traced := median(tracedRuns)
	m["trace.untraced_run_s"] = metric{ref.run.Seconds(), "s"}
	m["trace.traced_run_s"] = metric{traced, "s"}
	m["trace.overhead_s"] = metric{traced - ref.run.Seconds(), "s"}

	lines := ck.lines()
	lines = append(lines, layerTable(fold, n)...)
	lines = append(lines, spanTable(log, totals, n)...)
	files, err := writeTrace(cfg, out, log, firstProfile, fold)
	if err != nil {
		return result{}, nil, err
	}
	lines = append(lines, files...)
	return res, lines, nil
}

func (f *cpuFold) add(g cpuFold) {
	f.Samples += g.Samples
	f.TotalNS += g.TotalNS
	for k, v := range g.NS {
		f.NS[k] += v
	}
}

// layerTable renders the module fold, largest first.
func layerTable(fold cpuFold, n float64) []string {
	mods := append([]string(nil), modules...)
	sort.SliceStable(mods, func(i, j int) bool { return fold.NS[mods[i]] > fold.NS[mods[j]] })
	out := []string{fmt.Sprintf("CPU by layer (%d samples; host s per repetition):", fold.Samples)}
	for _, mod := range mods {
		ns := fold.NS[mod]
		if ns == 0 {
			continue
		}
		out = append(out, fmt.Sprintf("  %-12s %9.3f s  %5.1f%%", mod, float64(ns)/1e9/n, 100*ratio(float64(ns), float64(fold.TotalNS))))
	}
	return out
}

// spanTable renders every span name with its total and self time per
// repetition.
func spanTable(log *spanLog, totals map[string]spanTotal, n float64) []string {
	out := []string{"Spans (host s per repetition):", fmt.Sprintf("  %-22s %7s %9s %9s %9s", "name", "spans", "calls", "total s", "self s")}
	for _, name := range log.names() {
		t := totals[name]
		out = append(out, fmt.Sprintf("  %-22s %7.0f %9.0f %9.3f %9.3f", name, float64(t.Spans)/n, float64(t.Calls)/n, t.Seconds/n, t.Self/n))
	}
	return out
}

// writeTrace writes the traced run's spans, its first CPU profile
// (readable with `go tool pprof`) and the module fold.
func writeTrace(cfg config, out string, log *spanLog, profile []byte, fold cpuFold) ([]string, error) {
	dir := filepath.Join(out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d", cfg.sc.name, cfg.workload, cfg.seed))
	layers, err := json.MarshalIndent(fold, "", " ")
	if err != nil {
		return nil, err
	}
	if err := log.writeFile(base + ".spans.json"); err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".cpu.pprof", profile, 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".layers.json", layers, 0o644); err != nil {
		return nil, err
	}
	return []string{"trace written: " + base + ".{spans.json,cpu.pprof,layers.json}"}, nil
}

// runtimeStats are the Go runtime's cumulative allocation and GC
// figures, read from runtime/metrics.
type runtimeStats struct {
	allocBytes, allocObjects, gcCycles, gcPauseS float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeStats{
		allocBytes:   float64(s[0].Value.Uint64()),
		allocObjects: float64(s[1].Value.Uint64()),
		gcCycles:     float64(s[2].Value.Uint64()),
		gcPauseS:     histogramSum(s[3].Value.Float64Histogram()),
	}
}

// histogramSum estimates the total of a runtime histogram from bucket
// midpoints (a bucket with an infinite edge counts at its finite one).
func histogramSum(h *metrics.Float64Histogram) float64 {
	sum := 0.0
	for i, c := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(lo, 0):
			mid = hi
		case math.IsInf(hi, 0):
			mid = lo
		}
		sum += float64(c) * mid
	}
	return sum
}

func (s runtimeStats) since(t runtimeStats) runtimeStats {
	return runtimeStats{
		allocBytes:   s.allocBytes - t.allocBytes,
		allocObjects: s.allocObjects - t.allocObjects,
		gcCycles:     s.gcCycles - t.gcCycles,
		gcPauseS:     s.gcPauseS - t.gcPauseS,
	}
}

// medianRuntime renders the median of each runtime figure over the
// repetitions.
func medianRuntime(rt []runtimeStats) string {
	pick := func(f func(runtimeStats) float64) float64 {
		v := make([]float64, len(rt))
		for i, r := range rt {
			v[i] = f(r)
		}
		return median(v)
	}
	return fmt.Sprintf("alloc %.1f MB, %.1fk objects, %.0f GC cycles, %.2f ms GC pause",
		pick(func(r runtimeStats) float64 { return r.allocBytes / (1 << 20) }),
		pick(func(r runtimeStats) float64 { return r.allocObjects / 1e3 }),
		pick(func(r runtimeStats) float64 { return r.gcCycles }),
		pick(func(r runtimeStats) float64 { return r.gcPauseS * 1e3 }))
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// printMetrics prints every metric as "name value unit", sorted by
// name.
func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "  %-28s %14.6f %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Print(b.String())
}
