// Command hh-top is a terminal view of the simulated machine: the
// bucketed DRAM activation/flip heatmap, the memory-layout census, and
// the fired watchpoint alerts, refreshed live against a running obs
// server or rendered once from a saved run artifact.
//
// Usage:
//
//	hh-top                              # watch http://127.0.0.1:9190
//	hh-top -url http://host:port        # watch another obs server
//	hh-top -interval 5s                 # refresh cadence
//	hh-top -iterations 3                # stop after N refreshes
//	hh-top -once run.json               # render a saved artifact, exit
//
// Exit status: 0 on success, 1 on an unreadable artifact, one without
// the machine sections, or a failed fetch, 2 on usage errors.
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
	fs := flag.NewFlagSet("hh-top", flag.ContinueOnError)
	fs.SetOutput(stderr)
	url := fs.String("url", "http://127.0.0.1:9190", "obs server base URL (scheme optional)")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval in live mode")
	iterations := fs.Int("iterations", 0, "stop after this many refreshes (0 = until interrupted)")
	once := fs.String("once", "", "render this saved run artifact once and exit (no server needed)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	tool := fs.Name()
	fail := func(err error) int {
		fmt.Fprintln(stderr, "hh-top:", err)
		return 1
	}

	if *once != "" {
		a, err := runartifact.ReadFile(*once)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "hh-top -once %s  (tool=%s seed=%d scale=%s simSeconds=%.1f)\n\n",
			*once, a.Tool, a.Seed, a.Scale, a.SimSeconds)
		if !a.Carries(tool) {
			return fail(fmt.Errorf("%s carries no introspection sections (rerun the producing tool with -obs or -artifact on a build with the inspection plane)", *once))
		}
		if err := a.Render(stdout, tool, 0); err != nil {
			return fail(err)
		}
		return 0
	}
	err := clirun.Watch{
		Tool: tool, URL: *url, Interval: *interval, Iterations: *iterations,
		Header: func(base string, get func(string, any) error) (string, error) {
			var health struct {
				SimSeconds    float64 `json:"simSeconds"`
				UptimeSeconds float64 `json:"uptimeSeconds"`
				BusDropped    uint64  `json:"busDropped"`
			}
			if err := get("/healthz", &health); err != nil {
				return "", err
			}
			return fmt.Sprintf("hh-top  %s  sim=%.1fs  uptime=%.0fs  busDropped=%d  (refresh %s)\n\n",
				base, health.SimSeconds, health.UptimeSeconds, health.BusDropped, *interval), nil
		},
	}.Run(stdout)
	if err != nil {
		return fail(err)
	}
	return 0
}
