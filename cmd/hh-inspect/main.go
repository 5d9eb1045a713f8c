// Command hh-inspect analyzes a recorded JSONL trace file offline:
// the span tree with simulated per-phase timing and correct parent
// attribution, a per-kind event census, a phase timeline, and a
// summary of anomalies (lost events, unmatched spans, malformed
// lines).
//
// The history subcommand renders a run-history store's index (written
// with -store) offline — the same table /api/history serves live. A
// run artifact's sections are rendered by hh-top -once, hh-why and
// hh-plan -artifact.
//
// Usage:
//
//	hyperhammer -short -trace run.trace
//	hh-inspect run.trace             # everything
//	hh-inspect -tree run.trace       # just the span tree
//	hh-inspect -kinds -anomalies run.trace
//	hh-inspect -timeline -width 100 run.trace
//	hh-inspect history store         # run-history store index (hh-trend's data)
//
// Exit status: 0 on success, 1 on an unreadable input or a damaged
// trace, 2 on usage errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hyperhammer/internal/obs"
	"hyperhammer/internal/report"
	"hyperhammer/internal/runstore"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "hh-inspect:", err)
		return 1
	}
	// Subcommand dispatch rides ahead of flag parsing so the trace
	// flags don't apply to the store.
	if len(args) > 0 && args[0] == "history" {
		if len(args) != 2 {
			fmt.Fprintln(stderr, "usage: hh-inspect history storedir")
			return 2
		}
		if err := renderHistory(stdout, args[1]); err != nil {
			return fail(err)
		}
		return 0
	}
	fs := flag.NewFlagSet("hh-inspect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tree := fs.Bool("tree", false, "print the span tree with per-phase simulated timing")
	kinds := fs.Bool("kinds", false, "print the per-kind event census")
	timeline := fs.Bool("timeline", false, "print top-level spans as a timeline over simulated time")
	anomalies := fs.Bool("anomalies", false, "print what the trace says went wrong")
	width := fs.Int("width", 72, "timeline width in characters")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: hh-inspect [-tree] [-kinds] [-timeline] [-anomalies] trace.jsonl")
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	defer f.Close()
	in, err := obs.Inspect(f)
	if err != nil {
		return fail(err)
	}

	// No section selected: print everything.
	all := !*tree && !*kinds && !*timeline && !*anomalies
	out := stdout
	fmt.Fprintf(out, "%s: %d events, %s simulated\n\n",
		fs.Arg(0), in.Events,
		report.FormatDuration(time.Duration(in.LastSimSeconds*float64(time.Second))))
	if all || *tree {
		in.WriteSpanTree(out)
		fmt.Fprintln(out)
	}
	if all || *timeline {
		in.WriteTimeline(out, *width)
		fmt.Fprintln(out)
	}
	if all || *kinds {
		in.WriteKinds(out)
		fmt.Fprintln(out)
	}
	if all || *anomalies {
		in.WriteAnomalies(out)
	}
	if in.SeqGaps > 0 || in.MalformedLines > 0 {
		return 1 // the trace is damaged; make scripts notice
	}
	return 0
}

// renderHistory prints a run-history store's index offline, mirroring
// /api/history: one row per ingested run with its config/content
// hashes and headline figures. hh-trend folds the same index into
// cross-run figure trends.
func renderHistory(w io.Writer, dir string) error {
	if _, err := os.Stat(dir); err != nil {
		return fmt.Errorf("%s: %w (produce a store with hyperhammer -store or hh-tables -store)", dir, err)
	}
	s, err := runstore.Open(dir)
	if err != nil {
		return err
	}
	defer s.Close()
	return runstore.RenderHistory(w, s.History())
}
