// Command hh-plan is a terminal view of the host-cost schedule: an
// ASCII Gantt chart of the experiment matrix across workers,
// per-worker utilization bars, the critical path through the run, and
// the top-slack units that could absorb more work. It refreshes live
// against a running obs server's /api/plan or renders once from a
// saved run artifact's plan section.
//
// All figures here are host wall-clock — the one non-deterministic
// plane of a run — so nothing hh-plan shows participates in the
// byte-identical artifact guarantee (see DESIGN.md).
//
// Usage:
//
//	hh-plan                              # watch http://127.0.0.1:9190
//	hh-plan -url http://host:port        # watch another obs server
//	hh-plan -interval 5s                 # refresh cadence
//	hh-plan -iterations 3                # stop after N refreshes
//	hh-plan -once                        # fetch once, no repaint loop
//	hh-plan -artifact run.json           # render a saved artifact, exit
//	hh-plan -width 120                   # wider Gantt/utilization bars
//
// Exit status: 0 on success, 1 on an unreadable artifact, one without
// a plan section, or a failed fetch, 2 on usage errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hyperhammer/internal/clirun"
	"hyperhammer/internal/runartifact"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hh-plan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	url := fs.String("url", "http://127.0.0.1:9190", "obs server base URL (scheme optional)")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval in live mode")
	iterations := fs.Int("iterations", 0, "stop after this many refreshes (0 = until interrupted)")
	once := fs.Bool("once", false, "fetch and render a single frame without clearing the screen")
	artifact := fs.String("artifact", "", "render this saved run artifact's plan section and exit (no server needed)")
	width := fs.Int("width", 72, "chart width in characters")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	tool := fs.Name()
	fail := func(err error) int {
		fmt.Fprintln(stderr, "hh-plan:", err)
		return 1
	}

	if *artifact != "" {
		a, err := runartifact.ReadFile(*artifact)
		if err != nil {
			return fail(err)
		}
		if !a.Carries(tool) {
			return fail(fmt.Errorf("%s carries no plan section (rerun the producing tool with -artifact on a build with the host-cost plane)", *artifact))
		}
		fmt.Fprintf(stdout, "hh-plan -artifact %s  (tool=%s seed=%d scale=%s simSeconds=%.1f)\n\n",
			*artifact, a.Tool, a.Seed, a.Scale, a.SimSeconds)
		if err := a.Render(stdout, tool, *width); err != nil {
			return fail(err)
		}
		return 0
	}
	if *once {
		*iterations = 1
	}
	// A run that has not finished yet serves a plan with zero units;
	// that renders as an empty schedule rather than an error, so the
	// watch can be started before the run.
	err := clirun.Watch{
		Tool: tool, URL: *url, Interval: *interval, Iterations: *iterations,
		Width: *width, Plain: *once,
		Header: func(base string, _ func(string, any) error) (string, error) {
			return fmt.Sprintf("hh-plan  %s  (refresh %s)\n\n", base, *interval), nil
		},
	}.Run(stdout)
	if err != nil {
		return fail(err)
	}
	return 0
}
