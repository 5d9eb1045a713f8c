package inspect

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"hyperhammer/internal/metrics"
)

// shortCampaignRegistry returns a registry holding every family and
// series the committed short-campaign baseline artifact recorded.
func shortCampaignRegistry(tb testing.TB) *metrics.Registry {
	tb.Helper()
	raw, err := os.ReadFile("../../testdata/baselines/short-seed4.json")
	if err != nil {
		tb.Fatal(err)
	}
	var art struct {
		Metrics metrics.Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &art); err != nil {
		tb.Fatal(err)
	}
	reg := metrics.New()
	reg.Absorb(art.Metrics)
	return reg
}

// BenchmarkInspectorEvaluate is one steady-state watchpoint tick: the
// default rules over a short campaign's registry, no census function.
// It must not allocate (make hotpath-gate).
func BenchmarkInspectorEvaluate(b *testing.B) {
	ins := New(Config{})
	ins.SetMetrics(shortCampaignRegistry(b))
	ins.Evaluate(0) // edge rules on already-nonzero counters fire here, once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ins.Evaluate(time.Duration(i+1) * time.Second)
	}
}
