// Command hh-tables regenerates the paper's evaluation artifacts: every
// table, the figure, and the supplementary analyses, on the simulated
// substrate.
//
// Usage:
//
//	hh-tables -all                 # everything (Table 3 takes minutes)
//	hh-tables -table 1 -table 2    # specific tables
//	hh-tables -figure 3            # the noise-page traces
//	hh-tables -analysis -extras    # closed-form + Section 6 analyses
//	hh-tables -ablations           # design-choice ablations
//	hh-tables -short -all          # reduced-scale quick pass
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"hyperhammer"
	"hyperhammer/experiments"
	"hyperhammer/internal/clirun"
)

type intList []int

func (l *intList) String() string { return fmt.Sprint(*l) }

func (l *intList) Set(v string) error {
	n, err := strconv.Atoi(v)
	if err != nil {
		return err
	}
	*l = append(*l, n)
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it returns 0 on success, 1 when an
// experiment or an output failed, and 2 on a usage error or an empty
// selection.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hh-tables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var tables intList
	figure := fs.Bool("figure", false, "reproduce Figure 3 (noise-page traces)")
	analysis := fs.Bool("analysis", false, "Section 5.3 closed-form analysis")
	extras := fs.Bool("extras", false, "Section 5.1/6 analyses (DRAMDig, quarantine, Xen, balloon)")
	ablations := fs.Bool("ablations", false, "design-choice ablations")
	all := fs.Bool("all", false, "everything")
	short := fs.Bool("short", false, "reduced scale (seconds instead of minutes)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	attempts := fs.Int("attempts", 0, "Table 3 attempt cap (0 = default)")
	parallel := fs.Int("parallel", 0, "worker-pool size for independent experiment units (0 = GOMAXPROCS, 1 = sequential; results are identical at any setting)")
	fs.Var(&tables, "table", "table number to reproduce (repeatable: 1, 2, 3)")
	rn := clirun.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	want := func(n int) bool { return *all || slices.Contains(tables, n) }
	// Progress lines go to stderr, stamped with the simulated clock of
	// the most recently booted host — each experiment restarts it.
	if err := rn.Start(stderr, stderr, false); err != nil {
		fmt.Fprintln(stderr, "hh-tables:", err)
		return 1
	}
	log := rn.Log
	o := experiments.Options{Seed: *seed, Short: *short, MaxAttempts: *attempts, Parallel: *parallel,
		Planes: rn.Planes, Obs: rn.Obs}
	// Every selected experiment registers its units on this one plan;
	// the plan fans independent units across the worker pool and folds
	// results — values and telemetry alike — in declaration order, so
	// stdout, metrics, traces and the artifact are identical at any
	// -parallel setting. Printing happens after Run, from the resolved
	// futures, in the same order as the sequential CLI. The plan's
	// schedule feeds /api/plan, the artifact's plan section and
	// -chrome-trace.
	p := experiments.NewPlan(o)
	var prints []func()
	// selected is the normalized experiment selection, in canonical
	// order. This is what the artifact records as deterministic config:
	// unlike the raw argv it is independent of flag order, repetition,
	// and host-only flags, so two runs selecting the same experiments
	// hash the same.
	var selected []string
	sel := func(on bool, key, what string, reg func()) {
		if on {
			selected = append(selected, key)
			log.Info("queueing", "artifact", what)
			reg()
		}
	}

	var t1f *experiments.Future[*experiments.Table1Result]
	sel(want(1), "table1", "table 1", func() {
		f := p.Table1()
		t1f = f
		prints = append(prints, func() { fmt.Fprintln(stdout, f.Get().Table()) })
	})
	sel(want(2), "table2", "table 2", func() {
		f := p.Table2()
		prints = append(prints, func() { fmt.Fprintln(stdout, f.Get().Table()) })
	})
	sel(want(3), "table3", "table 3", func() {
		f := p.Table3()
		prints = append(prints, func() { fmt.Fprintln(stdout, f.Get().Table()) })
	})
	sel(*figure || *all, "figure3", "figure 3", func() {
		f := p.Figure3()
		prints = append(prints, func() {
			fmt.Fprintln(stdout, f.Get().Figure())
			fmt.Fprintln(stdout, "summary:")
			fmt.Fprintln(stdout, f.Get().Figure().Summary())
		})
	})
	sel(*analysis || *all, "analysis", "analysis", func() {
		in := t1f
		if in == nil {
			in = experiments.Resolved[*experiments.Table1Result](nil)
		}
		f := p.Analysis(in)
		prints = append(prints, func() {
			fmt.Fprintln(stdout, f.Get().Table())
			fmt.Fprintln(stdout, experiments.VMSize(o).Table())
		})
	})
	sel(*extras || *all, "extras", "extras", func() {
		dd := p.DRAMDig()
		mit := p.Mitigation()
		xen := p.Xen()
		bal := p.Balloon()
		trr := p.TRR()
		ecc := p.ECC()
		mh := p.Multihit()
		prints = append(prints, func() {
			fmt.Fprintln(stdout, dd.Get().Table())
			fmt.Fprintln(stdout, mit.Get().Table())
			fmt.Fprintln(stdout, xen.Get().Table())
			fmt.Fprintln(stdout, bal.Get().Table())
			fmt.Fprintln(stdout, trr.Get().Table())
			fmt.Fprintln(stdout, ecc.Get().Table())
			fmt.Fprintln(stdout, mh.Get().Table())
		})
	})
	sel(*ablations || *all, "ablations", "ablations", func() {
		side := p.AblationSidedness()
		ex := p.AblationNoExhaust()
		spray := p.AblationSpraySize()
		thp := p.AblationTHP()
		pcp := p.AblationPCPNoise()
		prints = append(prints, func() {
			fmt.Fprintln(stdout, side.Get().Table())
			fmt.Fprintln(stdout, ex.Get().Table())
			fmt.Fprintln(stdout, spray.Get().Table())
			fmt.Fprintln(stdout, thp.Get().Table())
			fmt.Fprintln(stdout, pcp.Get().Table())
		})
	})
	// Installed once the selection is final: the bundle records it.
	scale := "full"
	if *short {
		scale = "short"
	}
	rn.Describe(func() *hyperhammer.RunArtifact {
		a := hyperhammer.NewRunArtifact("hh-tables", *seed, scale)
		a.Config["short"] = strconv.FormatBool(*short)
		a.Config["attempts"] = strconv.Itoa(*attempts)
		a.Config["parallel"] = strconv.Itoa(*parallel)
		// "selected" is the canonical experiment set (enters ConfigHash);
		// "selection" keeps the raw argv for humans and is excluded from
		// the hash as host-only (it drags output paths and -parallel in).
		a.Config["selected"] = strings.Join(selected, ",")
		a.Config["selection"] = strings.Join(args, " ")
		return a
	}, p.Schedule)
	if p.Units() == 0 {
		fmt.Fprintln(stderr, "hh-tables: nothing selected; try -all or -table N")
		fmt.Fprintln(stderr, strings.TrimSpace(`
flags: -table N (repeatable) -figure -analysis -extras -ablations -all -short -seed S -attempts N -parallel N -obs ADDR`))
		return rn.Exit(2)
	}
	log.Info("running", "units", strconv.Itoa(p.Units()))
	if err := p.Run(); err != nil {
		fmt.Fprintf(stderr, "hh-tables: %v\n", err)
		return rn.Exit(1)
	}
	for _, print := range prints {
		print()
	}
	return rn.Exit(0)
}
