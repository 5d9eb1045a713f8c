package inspect

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"hyperhammer/internal/metrics"
)

// oracleValues is the snapshot-based value map watchpoints evaluated
// over before rule keys were resolved to registry handles: every
// counter and gauge under its bare name (summed across labels) and its
// "name{k=v}" series key, plus the heatmap-derived dram.* values. It is
// kept as the reference Evaluate must agree with.
func oracleValues(reg *metrics.Registry, heat *Heatmap) map[string]float64 {
	vals := make(map[string]float64, 64)
	snap := reg.Snapshot()
	addSample := func(s metrics.Sample) {
		vals[s.Name] += s.Value
		if len(s.Labels) > 0 {
			key := s.Name + "{"
			for i := 0; i+1 < len(s.Labels); i += 2 {
				if i > 0 {
					key += ","
				}
				key += s.Labels[i] + "=" + s.Labels[i+1]
			}
			vals[key+"}"] = s.Value
		}
	}
	for _, s := range snap.Counters {
		addSample(s)
	}
	for _, s := range snap.Gauges {
		addSample(s)
	}
	vals["dram.row_window_activations"] = float64(heat.maxRowWindow)
	vals["dram.total_activations"] = float64(heat.totalAct)
	vals["dram.total_flips"] = float64(heat.totalFlips)
	return vals
}

// oracleEvaluate is Evaluate's rule loop over oracleValues, reading
// reg instead of the inspector's resolved keys.
func oracleEvaluate(ins *Inspector, reg *metrics.Registry, now time.Duration) {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	t := now.Seconds()
	vals := oracleValues(reg, ins.heat)
	for i, r := range ins.rules {
		st := &ins.state[i]
		key := r.Metric
		isRate := false
		if inner, ok := rateInner(r.Metric); ok {
			key, isRate = inner, true
		}
		v, ok := vals[key]
		if !ok {
			continue
		}
		if isRate {
			raw := v
			if !st.hasPrev || t <= st.prevT {
				st.prevVal, st.prevT, st.hasPrev = raw, t, true
				continue
			}
			v = (raw - st.prevVal) / (t - st.prevT)
			st.prevVal, st.prevT = raw, t
		}
		cond := compare(v, r.Op, r.Threshold)
		fire := cond && (r.Mode == Level || !st.active)
		st.active = cond
		if fire {
			ins.fireLocked(r, "", t, v)
		}
	}
}

// oracleFamily is one metric family the random sequences write.
type oracleFamily struct {
	name string
	kind string // "counter", "gauge" or "histogram"
}

// oracleFamilies mixes plain names, a histogram whose name rule keys
// use, a counter the heatmap-derived dram.total_flips shadows, and
// families whose names contain a brace, so a bare key and a
// labeled key of another family spell the same string: one of another
// kind and one of the same kind, which pins the snapshot's order of
// kinds and of names.
var oracleFamilies = []oracleFamily{
	{"a_total", "counter"},
	{"b_total", "counter"},
	{"a_total{k=1}", "gauge"},
	{"depth", "gauge"},
	{"depth{k=1}", "gauge"},
	{"level", "gauge"},
	{"lat", "histogram"},
	{"dram.total_flips", "counter"},
}

// oracleLabels are the label sets series are written with. The value
// "1,m=2" makes two distinct series render the same "k=v" join.
var oracleLabels = [][]string{
	nil,
	{"k", "1"},
	{"k", "2"},
	{"m", "2", "k", "1"},
	{"k", "1,m=2"},
	{"z"},
}

// oracleKeys are the value keys rules read: bare names, labeled keys
// in sorted order, unsorted and with a missing label, histogram and
// unregistered names, and the heatmap-derived values.
var oracleKeys = []string{
	"a_total", "b_total", "depth", "level", "lat", "never",
	"a_total{k=1}", "a_total{k=2}", "a_total{k=1,m=2}", "a_total{m=2,k=1}",
	"a_total{z=(missing)}", "a_total{k=1}{k=1}", "depth{k=1}", "lat{k=1}",
	"dram.row_window_activations", "dram.total_activations", "dram.total_flips",
}

// oracleRules draws a random rule set over oracleKeys.
func oracleRules(rng *rand.Rand) []Rule {
	ops := []string{">", ">=", "<", "<=", "==", "!="}
	thresholds := []float64{-3, 0, 1, 4, 10, 1e6, 1 << 62}
	n := 4 + rng.IntN(12)
	rules := make([]Rule, n)
	for i := range rules {
		key := oracleKeys[rng.IntN(len(oracleKeys))]
		if rng.IntN(3) == 0 {
			key = "rate(" + key + ")"
		}
		mode := Edge
		if rng.IntN(3) == 0 {
			mode = Level
		}
		rules[i] = Rule{
			Name: fmt.Sprintf("r%d", i), Metric: key,
			Op: ops[rng.IntN(len(ops))], Threshold: thresholds[rng.IntN(len(thresholds))],
			Mode: mode,
		}
	}
	return rules
}

// oracleWrite applies one random metric write to reg.
func oracleWrite(rng *rand.Rand, reg *metrics.Registry) {
	f := oracleFamilies[rng.IntN(len(oracleFamilies))]
	labels := oracleLabels[rng.IntN(len(oracleLabels))]
	switch f.kind {
	case "counter":
		n := rng.Uint64N(8)
		if rng.IntN(8) == 0 {
			// Past 2^53 float64 sums depend on the order of addition.
			n = 1<<60 + rng.Uint64N(1<<20)
		}
		reg.Counter(f.name, "test", labels...).Add(n)
	case "gauge":
		reg.Gauge(f.name, "test", labels...).Set(rng.Int64N(20) - 10)
	default:
		reg.Histogram(f.name, "test", nil, labels...).Observe(rng.Float64())
	}
}

// TestEvaluateMatchesSnapshotOracle drives Evaluate and the
// snapshot-based oracle through the same random sequences of metric
// writes, heatmap records, registry swaps and ticks, and requires
// byte-identical alert snapshots and emitted alert events.
func TestEvaluateMatchesSnapshotOracle(t *testing.T) {
	fired := uint64(0)
	for seed := uint64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, 12))
		cfg := Config{MaxAlerts: 1 + rng.IntN(16), Rules: oracleRules(rng)}
		got, want := New(cfg), New(cfg)
		var gotEvents, wantEvents []string
		record := func(events *[]string) func(string, ...any) {
			return func(kind string, kv ...any) {
				b, err := json.Marshal(append([]any{kind}, kv...))
				if err != nil {
					t.Fatal(err)
				}
				*events = append(*events, string(b))
			}
		}
		got.SetEmit(record(&gotEvents))
		want.SetEmit(record(&wantEvents))
		for _, ins := range []*Inspector{got, want} {
			ins.BindMachine(2, 128)
		}

		reg := metrics.New()
		for i := rng.IntN(4); i > 0; i-- {
			oracleWrite(rng, reg) // families registered before binding
		}
		got.SetMetrics(reg)
		now := time.Duration(0)
		for step := 0; step < 200; step++ {
			switch op := rng.IntN(10); {
			case op < 5:
				oracleWrite(rng, reg)
			case op == 5:
				bank, row, n := rng.IntN(2), rng.IntN(128), rng.Int64N(200_000)
				got.RecordRowActivations(bank, row, n)
				want.RecordRowActivations(bank, row, n)
				if rng.IntN(2) == 0 {
					got.RecordFlip(bank, row)
					want.RecordFlip(bank, row)
				}
			case op == 6 && rng.IntN(8) == 0:
				reg = metrics.New()
				got.SetMetrics(reg)
			default:
				if rng.IntN(3) > 0 {
					now += time.Duration(1+rng.IntN(3)) * time.Second
				}
				got.Evaluate(now)
				oracleEvaluate(want, reg, now)
			}
		}

		gs, ws := got.AlertsSnapshot(), want.AlertsSnapshot()
		gj, _ := json.Marshal(gs)
		wj, _ := json.Marshal(ws)
		if string(gj) != string(wj) {
			t.Fatalf("seed %d: alerts differ\n got  %s\n want %s\nrules %+v", seed, gj, wj, cfg.Rules)
		}
		if fmt.Sprint(gotEvents) != fmt.Sprint(wantEvents) {
			t.Fatalf("seed %d: emitted events differ\n got  %v\n want %v", seed, gotEvents, wantEvents)
		}
		fired += gs.Total
	}
	if fired == 0 {
		t.Fatal("no rule fired in any sequence; the comparison is vacuous")
	}
}
