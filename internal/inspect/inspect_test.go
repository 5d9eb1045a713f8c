package inspect

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"hyperhammer/internal/metrics"
)

// TestBucketBoundaries pins the row→bucket mapping at every supported
// geometry row count. RowShift is 18 on both evaluated machines, so
// RowBits 11 through 16 place the row index in physical address bits
// 18 through 33; 64 buckets divide every 2^rowBits evenly, so bucket
// edges must land exactly on rows/buckets multiples.
func TestBucketBoundaries(t *testing.T) {
	for rowBits := 11; rowBits <= 16; rowBits++ {
		rows := 1 << rowBits
		h := NewHeatmap(1, rows, DefaultRowBuckets)
		per := rows / DefaultRowBuckets
		cases := []struct{ row, want int }{
			{0, 0},
			{per - 1, 0},
			{per, 1},
			{rows/2 - 1, DefaultRowBuckets/2 - 1},
			{rows / 2, DefaultRowBuckets / 2},
			{rows - per, DefaultRowBuckets - 1},
			{rows - 1, DefaultRowBuckets - 1},
		}
		for _, c := range cases {
			if got := h.bucketOf(c.row); got != c.want {
				t.Errorf("rowBits=%d: bucketOf(%d) = %d, want %d", rowBits, c.row, got, c.want)
			}
		}
		// Exact partition: every bucket must cover the same row count.
		counts := make([]int, DefaultRowBuckets)
		for r := 0; r < rows; r++ {
			counts[h.bucketOf(r)]++
		}
		for b, n := range counts {
			if n != per {
				t.Fatalf("rowBits=%d: bucket %d covers %d rows, want %d", rowBits, b, n, per)
			}
		}
	}
}

// TestBucketDegenerate covers out-of-range rows and unbound heatmaps.
func TestBucketDegenerate(t *testing.T) {
	h := NewHeatmap(0, 0, 0)
	if got := h.bucketOf(5); got != 0 {
		t.Errorf("bucketOf on empty heatmap = %d, want 0", got)
	}
	h.resize(2, 100) // rows not a bucket multiple: formula must clamp
	if got := h.bucketOf(99); got != DefaultRowBuckets-1 {
		t.Errorf("bucketOf(last odd row) = %d, want %d", got, DefaultRowBuckets-1)
	}
	h.addActivations(7, 0, 1) // out-of-range bank: dropped, not a panic
	if h.totalAct != 0 {
		t.Errorf("out-of-range bank accumulated %d activations", h.totalAct)
	}
}

// TestHeatmapAccumulateAndAbsorb checks recording, totals, and that
// absorb is an elementwise sum with a max over window pressure.
func TestHeatmapAccumulateAndAbsorb(t *testing.T) {
	a := NewHeatmap(2, 128, 64)
	b := NewHeatmap(2, 128, 64)
	a.addActivations(0, 0, 100)
	a.addFlip(0, 0)
	b.addActivations(0, 0, 50)
	b.addActivations(1, 127, 300)
	b.addFlip(1, 127)
	a.absorb(b)
	if a.totalAct != 450 || a.totalFlips != 2 {
		t.Errorf("totals = (%d, %d), want (450, 2)", a.totalAct, a.totalFlips)
	}
	if a.maxRowWindow != 300 {
		t.Errorf("maxRowWindow = %d, want 300", a.maxRowWindow)
	}
	if a.act[0][0] != 150 || a.act[1][63] != 300 {
		t.Errorf("cells = %d, %d; want 150, 300", a.act[0][0], a.act[1][63])
	}
}

// reg returns a registry with one counter set to v.
func regWith(t *testing.T, name string, v uint64) *metrics.Registry {
	t.Helper()
	r := metrics.New()
	r.Counter(name, "test").Add(v)
	return r
}

// TestWatchpointEdge checks edge rules fire once per false→true
// transition and re-arm after the condition clears.
func TestWatchpointEdge(t *testing.T) {
	r := metrics.New()
	c := r.Counter("x_total", "test")
	ins := New(Config{Rules: []Rule{{Name: "x", Metric: "x_total", Op: ">", Threshold: 5, Mode: Edge}}})
	ins.SetMetrics(r)

	ins.Evaluate(1 * time.Second) // 0 > 5: no
	c.Add(10)
	ins.Evaluate(2 * time.Second) // 10 > 5: fire
	ins.Evaluate(3 * time.Second) // still true: edge stays quiet
	s := ins.AlertsSnapshot()
	if s.Total != 1 {
		t.Fatalf("edge fired %d times, want 1", s.Total)
	}
	a := s.Recent[0]
	if a.Rule != "x" || a.SimSeconds != 2 || a.Value != 10 {
		t.Errorf("alert = %+v, want rule x at t=2 value=10", a)
	}

	// Gauges can clear; the edge must re-arm. Model with a gauge rule.
	g := metrics.New()
	gauge := g.Gauge("lvl", "test")
	ins2 := New(Config{Rules: []Rule{{Name: "lvl", Metric: "lvl", Op: ">=", Threshold: 3, Mode: Edge}}})
	ins2.SetMetrics(g)
	gauge.Set(5)
	ins2.Evaluate(1 * time.Second) // fire
	gauge.Set(0)
	ins2.Evaluate(2 * time.Second) // clears, re-arms
	gauge.Set(7)
	ins2.Evaluate(3 * time.Second) // fire again
	if got := ins2.AlertsSnapshot().Total; got != 2 {
		t.Errorf("re-armed edge fired %d times, want 2", got)
	}
}

// TestWatchpointLevel checks level rules fire at every tick the
// condition holds.
func TestWatchpointLevel(t *testing.T) {
	r := regWith(t, "x_total", 10)
	ins := New(Config{Rules: []Rule{{Name: "x", Metric: "x_total", Op: ">", Threshold: 5, Mode: Level}}})
	ins.SetMetrics(r)
	for i := 1; i <= 3; i++ {
		ins.Evaluate(time.Duration(i) * time.Second)
	}
	if got := ins.AlertsSnapshot().Total; got != 3 {
		t.Errorf("level fired %d times, want 3", got)
	}
}

// TestWatchpointRate checks rate() computes a per-sim-second delta
// between ticks and skips its first observation.
func TestWatchpointRate(t *testing.T) {
	r := metrics.New()
	c := r.Counter("x_total", "test")
	ins := New(Config{Rules: []Rule{{Name: "rx", Metric: "rate(x_total)", Op: ">", Threshold: 4, Mode: Edge}}})
	ins.SetMetrics(r)

	c.Add(100)
	ins.Evaluate(1 * time.Second) // first observation: no rate yet
	c.Add(10)
	ins.Evaluate(3 * time.Second) // Δ10 over 2s = 5/s > 4: fire
	s := ins.AlertsSnapshot()
	if s.Total != 1 {
		t.Fatalf("rate rule fired %d times, want 1", s.Total)
	}
	if s.Recent[0].Value != 5 {
		t.Errorf("rate value = %g, want 5", s.Recent[0].Value)
	}
}

// TestWatchpointHeatmapValue checks the derived dram.* values resolve.
func TestWatchpointHeatmapValue(t *testing.T) {
	ins := New(Config{Rules: []Rule{{
		Name: "pressure", Metric: "dram.row_window_activations",
		Op: ">", Threshold: 120_000, Mode: Edge,
	}}})
	ins.SetMetrics(metrics.New())
	ins.BindMachine(2, 2048)
	ins.RecordRowActivations(1, 700, 150_000)
	ins.Evaluate(time.Second)
	if got := ins.AlertsSnapshot().Total; got != 1 {
		t.Fatalf("dram.row_window_activations rule fired %d times, want 1", got)
	}
}

// TestLabeledSeriesKeys checks labeled counters resolve under both the
// bare (summed) name and the name{k=v} series key.
func TestLabeledSeriesKeys(t *testing.T) {
	r := metrics.New()
	r.Counter("flips", "test", "dir", "a").Add(3)
	r.Counter("flips", "test", "dir", "b").Add(4)
	ins := New(Config{Rules: []Rule{
		{Name: "sum", Metric: "flips", Op: "==", Threshold: 7, Mode: Edge},
		{Name: "one", Metric: "flips{dir=b}", Op: "==", Threshold: 4, Mode: Edge},
	}})
	ins.SetMetrics(r)
	ins.Evaluate(time.Second)
	s := ins.AlertsSnapshot()
	if s.Total != 2 {
		t.Fatalf("fired %d, want 2 (sum and labeled series): %+v", s.Total, s.Recent)
	}
}

// TestAbsorbTagsAndMerges checks scoped inspectors fold: heatmaps sum,
// censuses append in call order with the unit tag, alert totals merge,
// and absorbed alerts inherit the unit name.
func TestAbsorbTagsAndMerges(t *testing.T) {
	parent := New(Config{})
	for i, unit := range []string{"u1", "u2"} {
		child := parent.Scoped()
		child.BindMachine(1, 128)
		child.RecordRowActivations(0, 0, int64(100*(i+1)))
		child.SetMetrics(regWith(t, "dram_flips_total", 1))
		child.SetCensusFunc(func() Census { return Census{VMs: i + 1} })
		child.Evaluate(time.Second) // fires flips-applied (default rules)
		parent.Absorb(child, unit)
	}
	heat := parent.HeatmapSnapshot()
	if heat.TotalActivations != 300 {
		t.Errorf("absorbed activations = %d, want 300", heat.TotalActivations)
	}
	cs := parent.CensusSnapshot()
	if len(cs.Censuses) != 2 || cs.Censuses[0].Unit != "u1" || cs.Censuses[1].Unit != "u2" {
		t.Fatalf("censuses = %+v, want tagged u1 then u2", cs.Censuses)
	}
	if cs.Censuses[1].Census.VMs != 2 {
		t.Errorf("u2 census VMs = %d, want 2", cs.Censuses[1].Census.VMs)
	}
	as := parent.AlertsSnapshot()
	if as.Total != 2 {
		t.Fatalf("absorbed alert total = %d, want 2", as.Total)
	}
	for _, a := range as.Recent {
		if a.Unit == "" {
			t.Errorf("absorbed alert lost its unit tag: %+v", a)
		}
	}
}

// TestNilInspectorJSONContract checks the nil receiver serves
// schema-valid snapshots: arrays [], never null.
func TestNilInspectorJSONContract(t *testing.T) {
	var ins *Inspector
	ins.BindMachine(2, 2) // all no-ops
	ins.RecordRowActivations(0, 0, 1)
	ins.RecordFlip(0, 0)
	ins.Evaluate(time.Second)
	ins.Absorb(nil, "x")
	for name, v := range map[string]any{
		"heatmap": ins.HeatmapSnapshot(),
		"census":  ins.CensusSnapshot(),
		"alerts":  ins.AlertsSnapshot(),
	} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if strings.Contains(string(b), "null") {
			t.Errorf("%s snapshot serializes null: %s", name, b)
		}
	}
}

// TestAlertRingBound checks the ring trims to MaxAlerts while totals
// keep counting.
func TestAlertRingBound(t *testing.T) {
	r := regWith(t, "x_total", 10)
	ins := New(Config{
		MaxAlerts: 4,
		Rules:     []Rule{{Name: "x", Metric: "x_total", Op: ">", Threshold: 0, Mode: Level}},
	})
	ins.SetMetrics(r)
	for i := 1; i <= 10; i++ {
		ins.Evaluate(time.Duration(i) * time.Second)
	}
	s := ins.AlertsSnapshot()
	if s.Total != 10 || len(s.Recent) != 4 {
		t.Fatalf("total=%d recent=%d, want 10 and 4", s.Total, len(s.Recent))
	}
	if s.Recent[0].SimSeconds != 7 || s.Recent[3].SimSeconds != 10 {
		t.Errorf("ring holds t=%g..%g, want 7..10", s.Recent[0].SimSeconds, s.Recent[3].SimSeconds)
	}
}

// TestRenderersCoverSnapshots sanity-checks the shared ASCII renderers
// on populated snapshots (hh-top consumes these, live and offline).
func TestRenderersCoverSnapshots(t *testing.T) {
	ins := New(Config{})
	ins.BindMachine(2, 128)
	ins.SetMetrics(metrics.New())
	ins.RecordRowActivations(0, 5, 1000)
	ins.RecordFlip(1, 100)
	ins.SetCensusFunc(func() Census {
		return Census{SimSeconds: 1.5, Geometry: "test", VMs: 1}
	})
	ins.Evaluate(time.Second)

	heat := RenderHeatmap(ins.HeatmapSnapshot())
	if !strings.Contains(heat, "bank  0") || !strings.Contains(heat, "F") {
		t.Errorf("heatmap render missing banks or flip marker:\n%s", heat)
	}
	cens := RenderCensus(ins.CensusSnapshot())
	if !strings.Contains(cens, "(host)") {
		t.Errorf("census render missing live host row:\n%s", cens)
	}
	if out := RenderAlerts(ins.AlertsSnapshot()); !strings.Contains(out, "alerts") {
		t.Errorf("alerts render: %q", out)
	}
	// Empty snapshots must render, not panic.
	RenderHeatmap(HeatmapSnapshot{Activations: [][]int64{}, Flips: [][]int64{}})
	RenderCensus(CensusSnapshot{})
	RenderAlerts(AlertsSnapshot{})
}

// TestRenderHeatmapDrawsOnlyStoredGrid: a corrupt header claiming more
// banks and buckets than the grid holds draws the stored cells only,
// instead of a line of blanks per claimed bank.
func TestRenderHeatmapDrawsOnlyStoredGrid(t *testing.T) {
	out := RenderHeatmap(HeatmapSnapshot{
		Banks: 100000, Buckets: 100,
		Activations: [][]int64{{1, 2}}, Flips: [][]int64{{0, 1}},
	})
	if !strings.HasSuffix(out, "bank  0 |=F|\n") || strings.Count(out, "\n") != 4 {
		t.Fatalf("render of a 1x2 grid under a 100000x100 header:\n%.400s", out)
	}
}
