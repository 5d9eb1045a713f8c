// Command hyperhammer runs the end-to-end attack: boot a simulated
// KVM host, plant a secret in host-kernel memory that no guest can
// reach, then let a malicious tenant VM profile its memory, steer EPT
// pages onto Rowhammer-vulnerable frames, flip them, and read the
// secret through the stolen translation.
//
// Usage:
//
//	hyperhammer                    # full-scale campaign (minutes)
//	hyperhammer -short             # 4 GiB scale (seconds)
//	hyperhammer -attempts N        # attempt budget
//	hyperhammer -obs 127.0.0.1:0   # live status page + /metrics + SSE
//	hyperhammer -artifact run.json # write the run bundle for hh-diff
//	hyperhammer -store store       # ingest the run into the history store (hh-trend)
//	hyperhammer -chrome-trace t.json # host-cost schedule for Perfetto
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync/atomic"

	"hyperhammer"
	"hyperhammer/internal/clirun"
	"hyperhammer/internal/report"
	"hyperhammer/internal/runartifact"
	"hyperhammer/internal/sched"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it returns 0 on an escape, 1 when the
// budget ran out, an output failed or the run errored, and 2 on a
// usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hyperhammer", flag.ContinueOnError)
	fs.SetOutput(stderr)
	short := fs.Bool("short", false, "run the reduced 4 GiB scale")
	seed := fs.Uint64("seed", 0, "simulation seed (0 = scale default)")
	attempts := fs.Int("attempts", 0, "attempt budget (0 = scale default)")
	metricsTable := fs.Bool("metrics-table", false, "print the metrics as a human-readable table at exit")
	hammerRounds := fs.Int("hammer-rounds", 0, "activation budget per hammer pattern (0 = attack default)")
	rn := clirun.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *seed == 0 {
		// Known-good defaults per scale; the attack is a geometric
		// draw at the Section 5.3.1 bound, so arbitrary seeds may
		// need more attempts than the default budget.
		*seed = 1
		if *short {
			*seed = 4
		}
	}

	scale, budget := hyperhammer.FullScale, 600
	if *short {
		scale, budget = hyperhammer.ShortScale, 250
	}
	s1 := hyperhammer.GetScenario(hyperhammer.SystemS1, scale)
	hostCfg := s1.HostConfig(*seed)
	vmCfg := s1.VM
	attackCfg := s1.AttackConfig()
	if *attempts > 0 {
		budget = *attempts
	}
	if *hammerRounds > 0 {
		attackCfg.HammerRounds = *hammerRounds
	}

	// Every progress line goes to stdout, stamped with the simulated
	// clock, the time base of every duration the campaign reports.
	if err := rn.Start(stdout, stderr, *metricsTable); err != nil {
		fmt.Fprintln(stderr, "hyperhammer:", err)
		return 1
	}
	hostCfg.Planes = rn.Planes
	hostCfg.Obs = rn.Obs
	log := rn.Log

	// campaignRes is filled in after the campaign; building the bundle
	// before that (the live /api/artifact endpoint, or an error path)
	// yields one without outcome rows, which hh-diff treats as figures
	// missing on one side.
	var campaignRes *hyperhammer.CampaignResult
	// The host-cost schedule of the single campaign unit, stamped by
	// the timed scheduler. Stored atomically because the live /api/plan
	// and /api/artifact handlers read it from server goroutines while
	// the campaign is still running (Load() == nil until it finishes).
	var hostSched atomic.Pointer[hyperhammer.HostSchedule]
	rn.Describe(func() *hyperhammer.RunArtifact {
		a := hyperhammer.NewRunArtifact("hyperhammer", *seed, scale.String())
		a.Config["short"] = strconv.FormatBool(*short)
		a.Config["attempts"] = strconv.Itoa(budget)
		a.Config["hammer-rounds"] = strconv.Itoa(attackCfg.HammerRounds)
		a.Config["geometry"] = hostCfg.Geometry.Name
		if res := campaignRes; res != nil {
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
		}
		// A compact extract of the headline series, when the plane
		// sampled any (hh-diff compares endpoints; the curves are for
		// humans and plots).
		for _, name := range []string{"dram_activations_total", "hammer_rounds_total"} {
			for _, sd := range rn.Obs.Store().Series(name) {
				s := runartifact.Series{Name: sd.Name, Labels: sd.Labels, Kind: sd.Kind}
				for _, pt := range sd.Points {
					s.Points = append(s.Points, runartifact.SeriesPoint{T: pt.SimSeconds, V: pt.Value})
				}
				a.Series = append(a.Series, s)
			}
		}
		return a
	}, hostSched.Load)
	exit := func(code int) int {
		// The campaign (or the error path) is done and the simulating
		// goroutine is idle, so a final census/watchpoint pass reflects
		// the end state rather than the last sample tick.
		rn.Planes.Inspect.Finalize(rn.Planes.Metrics.SimTime())
		if *metricsTable {
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, report.MetricsTable(rn.Planes.Metrics.Snapshot()))
		}
		return rn.Exit(code)
	}

	host, err := hyperhammer.NewHost(hostCfg)
	if err != nil {
		fmt.Fprintln(stderr, "hyperhammer:", err)
		return exit(1)
	}
	const secretValue = 0xC0FFEE_5EC2E7
	secretHPA := host.PlantSecret(secretValue)
	log.Info("host booted",
		"geometry", hostCfg.Geometry.Name,
		"memMiB", hostCfg.Geometry.Size/hyperhammer.MiB,
		"thp", true, "nxHugepages", true, "qemu", "stock")
	log.Info("secret planted in host kernel memory",
		"hpa", fmt.Sprintf("%#x", uint64(secretHPA)))
	log.Info("attacker VM configured",
		"memMiB", vmCfg.MemSize/hyperhammer.MiB, "vfioGroups", vmCfg.VFIOGroups, "viommu", true)

	// The single campaign runs as a one-unit batch through the same
	// timed scheduler hh-tables uses: with one unit the pool takes the
	// sequential fast path, so execution is identical to a direct call
	// — but the run lands in the host-cost plane (/api/plan, the
	// artifact's plan section, -chrome-trace).
	sc, err := sched.New(1).RunTimed([]sched.Unit{{
		Name: "campaign",
		Run: func() (any, error) {
			return hyperhammer.RunCampaign(host, hyperhammer.CampaignConfig{
				Attack:             attackCfg,
				VM:                 vmCfg,
				MaxAttempts:        budget,
				StopAtFirstSuccess: true,
				VerifyHPA:          secretHPA,
				VerifyValue:        secretValue,
				ChurnOps:           400,
			})
		},
	}}, func(_ int, v any) error {
		campaignRes = v.(*hyperhammer.CampaignResult)
		return nil
	})
	hostSched.Store(sc)
	if err != nil {
		fmt.Fprintln(stderr, "hyperhammer:", err)
		return exit(1)
	}
	res := campaignRes
	log.Info("profiling finished",
		"exploitableBits", res.ProfiledBits,
		"simulated", res.ProfileDuration.String())
	log.Info("attempts finished",
		"run", len(res.Attempts),
		"avgSimulated", res.AvgAttemptTime().String())
	log.Info("phase breakdown",
		"profile", report.FormatDuration(res.ProfileDuration),
		"steer", report.FormatDuration(res.SteerTime),
		"exploit", report.FormatDuration(res.ExploitTime),
		"reboot", report.FormatDuration(res.RebootTime),
		"setup", report.FormatDuration(res.SetupTime))
	if res.Successes == 0 {
		fmt.Fprintf(stdout, "\nno escape within %d attempts (expected ~%.0f at the Section 5.3.1 bound); retry with more -attempts or another -seed\n",
			budget, hyperhammer.ExpectedAttempts(uint64(vmCfg.MemSize), hostCfg.Geometry.Size))
		return exit(1)
	}
	fmt.Fprintf(stdout, "\nESCAPE at attempt %d after %v simulated attack time\n",
		res.FirstSuccessAttempt, res.TimeToFirstSuccess)
	fmt.Fprintf(stdout, "the guest read the host-kernel secret %#x through a stolen EPT page:\n", uint64(secretValue))
	fmt.Fprintln(stdout, "KVM-enforced isolation broken.")
	return exit(0)
}
