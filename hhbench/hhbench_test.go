package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"hyperhammer"
)

// shortConfig is a short-scale run of one workload: the CI machine
// sizes, with a two-attempt campaign.
func shortConfig(workload string) config {
	sc := shortScale()
	sc.attempts = 2
	return config{workload: workload, seed: 4, sc: sc}
}

func checkedRound(t *testing.T, cfg config) round {
	t.Helper()
	r := runRound(cfg, newSpanLog(), nil)
	if r.failed != 0 || len(r.problems) != 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", cfg.workload, r.failed, r.attempted, r.problems)
	}
	return r
}

func TestDigestDetectsPerturbedFigure(t *testing.T) {
	cfg := shortConfig(wlCampaign)
	h, _, ccfg, err := campaignSetup(cfg, newSpanLog(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hyperhammer.RunCampaign(h, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	fig := newCampaignFigures(h, res)
	want := fig.digest()

	perturb := map[string]func(f *campaignFigures){
		"attempt outcome": func(f *campaignFigures) { f.res.Attempts[0].Outcome += "x" },
		"attempt splits":  func(f *campaignFigures) { f.res.Attempts[1].Splits++ },
		"profiled bits":   func(f *campaignFigures) { f.res.ProfiledBits++ },
		"applied flip":    func(f *campaignFigures) { f.flips = append(f.flips, [3]uint64{0x1000, 3, 0}) },
		"simulated clock": func(f *campaignFigures) { f.simNS += int64(time.Millisecond) },
	}
	for name, fn := range perturb {
		g := fig
		res2 := *res
		res2.Attempts = append(res2.Attempts[:0:0], res.Attempts...)
		g.res = &res2
		g.flips = append(g.flips[:0:0], fig.flips...)
		fn(&g)
		if g.digest() == want {
			t.Errorf("%s: perturbed digest equals the original", name)
		}
		ck := &checker{cfg: cfg}
		ck.add(round{attempted: 2, digest: want})
		ck.add(round{attempted: 2, digest: g.digest()})
		if ck.result().Correct || ck.failed != 2 {
			t.Errorf("%s: repetition check passed a perturbed digest (failed %d)", name, ck.failed)
		}
	}
	if fig.digest() != want {
		t.Fatal("digest is not a pure function of the figures")
	}
}

func TestCampaignCheckCountsFailedAttempts(t *testing.T) {
	cfg := shortConfig(wlCampaign)
	h, _, ccfg, err := campaignSetup(cfg, newSpanLog(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hyperhammer.RunCampaign(h, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	fig := newCampaignFigures(h, res)
	if failed, p := fig.check(cfg.sc.attempts, true); failed != 0 || len(p) != 0 {
		t.Fatalf("clean campaign: %d failed, %v", failed, p)
	}
	res.Attempts[0].Success = true // an escape that did not read the secret
	if failed, _ := fig.check(cfg.sc.attempts, true); failed != 1 {
		t.Errorf("unverified escape: %d attempts failed, want 1", failed)
	}
	if _, p := fig.check(cfg.sc.attempts, false); len(p) == 0 {
		t.Error("overwritten secret passed the check")
	}
}

func TestBareAndObservedDigestsAgree(t *testing.T) {
	bare := checkedRound(t, shortConfig(wlCampaign))
	observed := checkedRound(t, shortConfig(wlObserved))
	if bare.digest != observed.digest {
		t.Fatalf("bare digest %016x, observed %016x: a telemetry plane perturbed the simulation", bare.digest, observed.digest)
	}
	if again := checkedRound(t, shortConfig(wlCampaign)); again.digest != bare.digest {
		t.Fatalf("repeated bare digest %016x, first %016x", again.digest, bare.digest)
	}
}

func TestCrossCheckComparesOnlyOneBuild(t *testing.T) {
	out := t.TempDir()
	if err := os.MkdirAll(filepath.Join(out, "digests"), 0o755); err != nil {
		t.Fatal(err)
	}
	checked := func(workload, build string, digest uint64) *checker {
		c := &checker{cfg: shortConfig(workload)}
		c.add(round{attempted: 2, digest: digest})
		c.crossCheck(out, build)
		return c
	}
	checked(wlCampaign, "buildA", 1)
	if c := checked(wlObserved, "buildB", 2); c.failed != 0 || len(c.problems) != 0 {
		t.Fatalf("another build's digest was compared: %v", c.problems)
	}
	if c := checked(wlObserved, "buildA", 2); c.failed != 2 || len(c.problems) != 1 {
		t.Fatalf("differing digests of one build passed: failed %d, %v", c.failed, c.problems)
	}
	if c := checked(wlObserved, "", 2); c.failed != 0 || len(c.problems) != 0 {
		t.Fatalf("unidentified build was compared: %v", c.problems)
	}
}

func TestSteeringCells(t *testing.T) {
	r := checkedRound(t, shortConfig(wlSteering))
	if r.attempted != 15 {
		t.Fatalf("%d cells, want 15", r.attempted)
	}
	bad := cellFigures{sys: sysS1, spray: 1 << 30, blocks: 4, released: 2048, eptPages: 10, reused: 11}
	if len(bad.check(4)) == 0 {
		t.Error("R > E passed the cell check")
	}
	bad = cellFigures{sys: sysS1, spray: 1 << 30, blocks: 4, released: 2047, eptPages: 10, reused: 1}
	if len(bad.check(4)) == 0 {
		t.Error("N != 512·B passed the cell check")
	}
}

func TestModuleOf(t *testing.T) {
	cases := []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"runtime.memmove", "hyperhammer/internal/phys.(*Memory).FillWord", "hyperhammer/internal/kvm.(*VM).FillPagesGPA", "main.main"}, "phys"},
		{[]string{"runtime.mallocgc", "hyperhammer/internal/kvm.(*VM).FillPagesGPA.func1", "hyperhammer/internal/attack.Profile"}, "kvm"},
		{[]string{"hyperhammer/internal/inspect.(*Inspector).Evaluate", "hyperhammer/internal/simtime.(*Clock).Advance"}, "inspect"},
		{[]string{"hyperhammer/internal/sched.Run[...]", "main.main"}, "sched"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{[]string{"sort.Slice", "hyperhammer/internal/report.Percent"}, "other"},
		{[]string{"hyperhammer.RunCampaign", "main.main"}, "other"},
		{[]string{"runtime.memclrNoHeapPointers", "main.campaignRound", "main.main"}, "other"},
	}
	for _, c := range cases {
		if got := moduleOf(c.stack); got != c.want {
			t.Errorf("moduleOf(%s) = %s, want %s", strings.Join(c.stack, " < "), got, c.want)
		}
	}
}

// TestFoldProfile decodes a real CPU profile of this process and checks
// that every sample lands in exactly one module.
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := uint64(1)
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	pprof.StopCPUProfile()
	if x == 0 {
		t.Log(x)
	}
	fold, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if fold.Samples == 0 {
		t.Skip("profile caught no samples")
	}
	var sum int64
	for mod, ns := range fold.NS {
		if !contains(modules, mod) {
			t.Errorf("fold produced unknown module %q", mod)
		}
		sum += ns
	}
	if sum != fold.TotalNS {
		t.Errorf("module sum %d != profile total %d", sum, fold.TotalNS)
	}
	if _, err := foldProfile(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestPhaseSinkStampsAttackSpans(t *testing.T) {
	cfg := shortConfig(wlCampaign)
	log := newSpanLog()
	phases := newPhaseSink()
	r := runRound(cfg, log, phases)
	if r.failed != 0 {
		t.Fatalf("traced round failed: %v", r.problems)
	}
	if len(phases.attempts) != cfg.sc.attempts {
		t.Errorf("sink saw %d attempts, want %d", len(phases.attempts), cfg.sc.attempts)
	}
	tot := log.totals()
	for _, name := range []string{"attack.campaign", "attack.profile", "attack.attempt", "attack.steer"} {
		if tot[name].Spans == 0 {
			t.Errorf("no %s span recorded", name)
		}
	}
	if tot["attack.campaign"].Seconds > tot["attack.run_campaign"].Seconds {
		t.Error("attack.campaign outlasts the benchmark span around it")
	}
}

func TestSpanSelfTime(t *testing.T) {
	l := newSpanLog()
	root := l.begin(0, "round")
	child := l.begin(root, "kvm.new_host")
	time.Sleep(2 * time.Millisecond)
	l.end(child, 1)
	l.end(root, 1)
	tot := l.totals()
	if got, want := tot["round"].Self, tot["round"].Seconds-tot["kvm.new_host"].Seconds; got != want {
		t.Errorf("round self %v, want %v", got, want)
	}
	if tot["kvm.new_host"].Self != tot["kvm.new_host"].Seconds {
		t.Error("leaf span self time differs from its duration")
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
