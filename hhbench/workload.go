package main

import (
	"fmt"
	"runtime"
	"time"

	"hyperhammer"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlCampaign = "campaign"
	wlObserved = "campaign-observed"
	wlSteering = "steering"
)

// secretValue is the magic word the host plants and a verified escape
// must read back through its stolen EPT page (Section 5.3.2).
const secretValue = 0x48595045_52484d52 // "HYPERHMR"

// ledgerEpoch seals determinism-ledger epochs every simulated hour: a
// paper-scale campaign spans about 80 simulated hours.
const ledgerEpoch = time.Hour

// round is what one repetition of a workload measured and checked.
type round struct {
	setup time.Duration
	run   time.Duration
	// attempted counts operations: attempts for the campaigns, (system,
	// S, B) cells for steering. failed counts those that returned an
	// error or failed an output check.
	attempted, failed int
	digest            uint64
	problems          []string
	// counts are the round's exact deterministic figures.
	counts map[string]float64
	// accuracy holds the lines comparing simulated figures to the
	// paper's published ones.
	accuracy []string
}

// config is what every round of one run shares.
type config struct {
	workload string
	seed     uint64
	sc       scale
}

// runRound runs one repetition of the configured workload. log
// receives the benchmark's spans; phases, when non-nil, is attached to
// the program's trace recorder to stamp its attack.* spans with host
// time (the traced run).
func runRound(cfg config, log *spanLog, phases *phaseSink) round {
	if cfg.workload == wlSteering {
		return steeringRound(cfg, log)
	}
	return campaignRound(cfg, log, phases)
}

// planes are the telemetry planes `hyperhammer -artifact` attaches,
// plus the determinism ledger.
type planes struct {
	rec       *hyperhammer.TraceRecorder
	reg       *hyperhammer.MetricsRegistry
	inspector *hyperhammer.Inspector
	forensics *hyperhammer.ForensicsRecorder
	ledger    *hyperhammer.LedgerRecorder
	profiler  *hyperhammer.CostProfiler
}

func newPlanes() *planes {
	p := &planes{
		rec:       hyperhammer.NewTrace(nil, 0),
		reg:       hyperhammer.NewMetrics(),
		inspector: hyperhammer.NewInspector(hyperhammer.InspectConfig{}),
		forensics: hyperhammer.NewForensics(hyperhammer.ForensicsConfig{}),
		ledger:    hyperhammer.NewLedger(hyperhammer.LedgerConfig{Epoch: ledgerEpoch}),
	}
	p.profiler = hyperhammer.NewCostProfiler(p.reg)
	p.rec.SetNamedSink("profile", p.profiler.Consume)
	return p
}

func (p *planes) attach(cfg *hyperhammer.HostConfig) {
	cfg.Trace = p.rec
	cfg.Metrics = p.reg
	cfg.Inspect = p.inspector
	cfg.Forensics = p.forensics
	cfg.Ledger = p.ledger
}

// artifact builds the run bundle the way `hyperhammer -artifact` does
// and encodes it, returning the encoded size.
func (p *planes) artifact(seed uint64, scaleName string, res *hyperhammer.CampaignResult) (int64, error) {
	p.inspector.Finalize(p.reg.SimTime())
	a := hyperhammer.NewRunArtifact("hhbench", seed, scaleName)
	a.SimSeconds = p.reg.SimTime().Seconds()
	a.Metrics = p.reg.Snapshot().StripHost()
	a.SetProfile(p.profiler.Snapshot())
	a.SetInspector(p.inspector)
	a.SetForensics(p.forensics)
	a.SetLedger(p.ledger)
	a.Outcome["attempts"] = float64(len(res.Attempts))
	a.Outcome["successes"] = float64(res.Successes)
	a.Outcome["first_success_attempt"] = float64(res.FirstSuccessAttempt)
	a.Outcome["profiled_bits"] = float64(res.ProfiledBits)
	a.Outcome["profile_seconds"] = res.ProfileDuration.Seconds()
	a.Outcome["steer_seconds"] = res.SteerTime.Seconds()
	a.Outcome["exploit_seconds"] = res.ExploitTime.Seconds()
	a.Outcome["reboot_seconds"] = res.RebootTime.Seconds()
	a.Outcome["setup_seconds"] = res.SetupTime.Seconds()
	a.Outcome["total_seconds"] = res.TotalDuration.Seconds()
	var n countingWriter
	err := a.Write(&n)
	return int64(n), err
}

// countingWriter counts the bytes written to it, so encoding the
// artifact costs what writing it out would, without holding it.
type countingWriter int64

func (c *countingWriter) Write(b []byte) (int, error) {
	*c += countingWriter(len(b))
	return len(b), nil
}

// campaignRound runs one paper-scale Table 3 campaign on S1: a fixed
// attempt budget that does not stop at the first escape, so every
// round of a seed simulates the same work.
func campaignRound(cfg config, log *spanLog, phases *phaseSink) round {
	observed := cfg.workload == wlObserved
	root := log.begin(0, "round")
	defer log.end(root, 1)
	r := round{attempted: cfg.sc.attempts}
	fail := func(err error) round {
		r.failed = r.attempted
		r.problems = append(r.problems, err.Error())
		return r
	}

	t0 := time.Now()
	h, pl, ccfg, err := campaignSetup(cfg, log, root, phases)
	r.setup = time.Since(t0)
	if err != nil {
		return fail(err)
	}

	// Timed section: the campaign, then (observed) the artifact.
	t1 := time.Now()
	runID := log.begin(root, "attack.run_campaign")
	if phases != nil {
		phases.parent = runID
	}
	res, err := hyperhammer.RunCampaign(h, ccfg)
	log.end(runID, 1)
	if err != nil {
		return fail(fmt.Errorf("campaign: %w", err))
	}
	var artifactBytes int64
	if observed {
		id := log.begin(root, "runartifact.build")
		artifactBytes, err = pl.artifact(cfg.seed, cfg.sc.name, res)
		log.end(id, 1)
		if err != nil {
			return fail(fmt.Errorf("artifact: %w", err))
		}
	}
	r.run = time.Since(t1)

	fig := newCampaignFigures(h, res)
	r.digest = fig.digest()
	r.failed, r.problems = fig.check(cfg.sc.attempts, h.Mem.Word(ccfg.VerifyHPA) == secretValue)
	if observed && artifactBytes == 0 {
		r.problems = append(r.problems, "artifact encoded to zero bytes")
	}
	escapes := float64(res.Successes)
	r.counts = map[string]float64{
		"sim.hours":                h.Clock.Now().Hours(),
		"attack.attempts":          float64(len(res.Attempts)),
		"attack.escapes":           escapes,
		"attack.escape_ratio":      ratio(escapes, float64(len(res.Attempts))),
		"attack.escape_ratio_base": float64(len(res.Attempts)),
		"attack.profiled_bits":     float64(res.ProfiledBits),
		"kvm.flips_applied":        float64(len(fig.flips)),
		"kvm.released_blocks":      float64(len(fig.released)),
	}
	avg := res.AvgAttemptTime()
	paper := 4 * time.Minute
	r.accuracy = []string{fmt.Sprintf(
		"Table 3 S1 average attempt: simulated %.2f min, paper %.1f min, error %+.1f%% (over %d attempts)",
		avg.Minutes(), paper.Minutes(), 100*(avg.Minutes()-paper.Minutes())/paper.Minutes(), len(res.Attempts))}
	return r
}

// campaignSetup boots the S1 host (with the telemetry planes when the
// workload observes), plants the secret and builds the campaign's
// configuration. phases, when non-nil, is tapped into the host's trace
// recorder, which the bare campaign then gains.
func campaignSetup(cfg config, log *spanLog, parent int, phases *phaseSink) (*hyperhammer.Host, *planes, hyperhammer.CampaignConfig, error) {
	hostCfg := cfg.sc.hostConfig(sysS1, cfg.seed)
	var pl *planes
	if cfg.workload == wlObserved {
		pl = newPlanes()
		pl.attach(&hostCfg)
	}
	if phases != nil {
		if hostCfg.Trace == nil {
			hostCfg.Trace = hyperhammer.NewTrace(nil, 0)
		}
		phases.attach(hostCfg.Trace, log)
	}
	id := log.begin(parent, "kvm.new_host")
	h, err := hyperhammer.NewHost(hostCfg)
	log.end(id, 1)
	if err != nil {
		return nil, nil, hyperhammer.CampaignConfig{}, fmt.Errorf("booting host: %w", err)
	}
	secret := h.PlantSecret(secretValue)
	return h, pl, hyperhammer.CampaignConfig{
		Attack:             cfg.sc.attackConfig(),
		VM:                 cfg.sc.vm,
		MaxAttempts:        cfg.sc.attempts,
		StopAtFirstSuccess: false,
		VerifyHPA:          secret,
		VerifyValue:        secretValue,
		ChurnOps:           400,
	}, nil
}

// setupOnly times the workload's set-up alone: what a repetition does
// before its timed section. A set-up error needs no handling here: the
// repetitions run the same set-up and report it.
func setupOnly(cfg config) time.Duration {
	if cfg.workload != wlSteering {
		t0 := time.Now()
		_, _, _, _ = campaignSetup(cfg, newSpanLog(), 0, nil)
		return time.Since(t0)
	}
	var total time.Duration
	for _, sys := range []system{sysS1, sysS2, sysS3} {
		for range cfg.sc.grid {
			runtime.GC()
			t0 := time.Now()
			_, _ = bootCell(cfg, sys)
			total += time.Since(t0)
		}
	}
	return total
}

// bootCell boots a fresh host for one Table 2 cell, attaching the
// OpenStack load on S3.
func bootCell(cfg config, sys system) (*hyperhammer.Host, error) {
	h, err := hyperhammer.NewHost(cfg.sc.hostConfig(sys, cfg.seed))
	if err != nil {
		return nil, err
	}
	if sys == sysS3 {
		_, err = hyperhammer.AttachWorkload(h, cfg.sc.load(), cfg.seed^0x53)
	}
	return h, err
}

// paperTable2 holds the paper's published R_N and R_E for each (S, B)
// setting of the full-scale grid, as EXPERIMENTS.md records them.
var paperTable2 = map[cell][2]float64{
	{5 * hyperhammer.GiB, 100}:  {0.014, 0.229},
	{10 * hyperhammer.GiB, 100}: {0.101, 0.913},
	{10 * hyperhammer.GiB, 70}:  {0.136, 0.859},
	{10 * hyperhammer.GiB, 30}:  {0.217, 0.586},
	{10 * hyperhammer.GiB, 20}:  {0.224, 0.407},
}

// steeringRound runs the Table 2 grid on S1, S2 and S3: for each cell a
// fresh host (S3 with the OpenStack load), one tenant VM, vIOMMU
// exhaustion, B released hugepages, an exec spray over S bytes, then
// the hypervisor's EPT-reuse count. The guest calls are the ones
// experiments.Table2 makes.
func steeringRound(cfg config, log *spanLog) round {
	root := log.begin(0, "round")
	defer log.end(root, 1)
	var r round
	var cells []cellFigures
	for _, sys := range []system{sysS1, sysS2, sysS3} {
		for _, c := range cfg.sc.grid {
			r.attempted++
			// Each cell is its own experiment on a fresh host: collect
			// the previous cell's host first, so every cell starts
			// from the same heap.
			runtime.GC()
			fig, setup, run, err := steerCell(cfg, log, root, sys, c)
			r.setup += setup
			r.run += run
			if err != nil {
				r.failed++
				r.problems = append(r.problems, fmt.Sprintf("%s S=%d B=%d: %v", sys, c.spray, c.blocks, err))
				continue
			}
			if p := fig.check(c.blocks); len(p) > 0 {
				r.failed++
				r.problems = append(r.problems, p...)
			}
			cells = append(cells, fig)
		}
	}
	r.digest = gridDigest(cells)
	r.counts = map[string]float64{}
	for _, c := range cells {
		r.counts["steer.released"] += float64(c.released)
		r.counts["steer.ept_pages"] += float64(c.eptPages)
		r.counts["steer.reused"] += float64(c.reused)
		r.counts["sim.hours"] += time.Duration(c.simNS).Hours()
		r.counts["kvm.released_blocks"] += float64(c.blocks)
		if paper, ok := paperTable2[cell{c.spray, c.blocks}]; ok {
			r.accuracy = append(r.accuracy, fmt.Sprintf(
				"Table 2 %s S=%2dGiB B=%3d: R_N %5.1f%% (paper %5.1f%%, error %+6.1f pp)  R_E %5.1f%% (paper %5.1f%%, error %+6.1f pp)",
				c.sys, c.spray/hyperhammer.GiB, c.blocks,
				100*c.rn(), 100*paper[0], 100*(c.rn()-paper[0]),
				100*c.re(), 100*paper[1], 100*(c.re()-paper[1])))
		}
	}
	r.counts["steer.rn"] = ratio(r.counts["steer.reused"], r.counts["steer.released"])
	r.counts["steer.re"] = ratio(r.counts["steer.reused"], r.counts["steer.ept_pages"])
	return r
}

// steerCell measures one (system, S, B) cell on a fresh host. setup is
// the host boot (and S3's load); run is everything after it.
func steerCell(cfg config, log *spanLog, parent int, sys system, c cell) (fig cellFigures, setup, run time.Duration, err error) {
	cellID := log.begin(parent, "steer.cell")
	defer log.end(cellID, 1)
	t0 := time.Now()
	id := log.begin(cellID, "kvm.new_host")
	h, err := bootCell(cfg, sys)
	log.end(id, 1)
	setup = time.Since(t0)
	if err != nil {
		return fig, setup, 0, err
	}
	t1 := time.Now()
	defer func() { run = time.Since(t1) }()

	id = log.begin(cellID, "kvm.create_vm")
	vm, err := h.CreateVM(cfg.sc.vm)
	log.end(id, 1)
	if err != nil {
		return fig, setup, 0, err
	}
	gos := hyperhammer.BootGuest(vm)
	gos.InstallAttackDriver()
	n := gos.FreeHugepages()
	id = log.begin(cellID, "guest.alloc_huge")
	base, err := gos.AllocHuge(n)
	log.end(id, 1)
	if err != nil {
		return fig, setup, 0, err
	}

	// Step 1: exhaust the host's noise pages through vIOMMU.
	id = log.begin(cellID, "viommu.map_dma")
	iova := hyperhammer.IOVA(0x1_0000_0000)
	for m := 0; m < cfg.sc.iovaMaps && err == nil; m++ {
		err = gos.MapDMA(0, iova, base)
		iova += hyperhammer.HugePageSize
	}
	log.end(id, cfg.sc.iovaMaps)
	if err != nil {
		return fig, setup, 0, err
	}

	// Step 2: release B hugepages spread through the buffer, skipping
	// the DMA target's.
	if c.blocks >= n-1 {
		return fig, setup, 0, fmt.Errorf("B=%d too large for %d hugepages", c.blocks, n)
	}
	id = log.begin(cellID, "virtio.release")
	stride := (n - 1) / c.blocks
	released := 0
	for i := 1; i < n && released < c.blocks && err == nil; i += stride {
		err = gos.ReleaseHugepage(base + hyperhammer.GVA(i)*hyperhammer.HugePageSize)
		released++
	}
	log.end(id, released)
	if err != nil {
		return fig, setup, 0, err
	}

	// Step 3: execute one instruction on each hugepage of the first S
	// bytes, splitting its EPT leaf (the iTLB Multihit countermeasure).
	id = log.begin(cellID, "ept.exec_split")
	want := int(c.spray / hyperhammer.HugePageSize)
	sprayed := 0
	for i := 0; i < n && sprayed < want && err == nil; i++ {
		gva := base + hyperhammer.GVA(i)*hyperhammer.HugePageSize
		if _, gerr := gos.GPAOf(gva); gerr != nil {
			continue // released
		}
		_, err = gos.Exec(gva)
		sprayed++
	}
	log.end(id, sprayed)
	if err != nil {
		return fig, setup, 0, err
	}

	id = log.begin(cellID, "kvm.ept_reuse")
	stats := vm.EPTReuse()
	log.end(id, 1)
	return cellFigures{
		sys: sys, spray: c.spray, blocks: stats.ReleasedBlocks,
		released: stats.ReleasedPages, eptPages: stats.EPTPages, reused: stats.ReusedPages,
		simNS: int64(h.Clock.Now()),
	}, setup, 0, nil
}
