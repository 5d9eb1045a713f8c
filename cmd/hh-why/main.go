// Command hh-why answers "why did attempt N fail (or escape)?" from a
// run artifact's flip-provenance section. Without flags it prints the
// campaign-level view: every attempt's outcome with its synthesized
// one-line cause, the per-campaign failure taxonomy, and the global
// flip-verdict and frame-owner tables. With -attempt it drills into one
// attempt's full causal lineage: the attack-ladder facts, then every
// retained flip with the aggressor rows that drove it, the mitigation
// (if any) that intercepted it, and — for landed flips — the physical
// frame owner it corrupted, down to the EPT table page whose corrupted
// EPTE redirects a VM's translation.
//
// Usage:
//
//	hyperhammer -short -artifact run.json
//	hh-why run.json                      # every attempt: outcome + cause
//	hh-why -attempt 33 run.json          # full lineage of attempt 33
//	hh-why -unit "S1 campaign" -attempt 2 run.json
//	hh-why -json run.json                # raw forensics snapshot
//
// Exit status: 0 on success, 1 on a missing/invalid artifact or an
// unknown attempt, 2 on usage errors.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"hyperhammer/internal/forensics"
	"hyperhammer/internal/runartifact"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hh-why", flag.ContinueOnError)
	fs.SetOutput(stderr)
	attempt := fs.Int("attempt", 0, "drill into this attempt's full flip lineage (1-based)")
	unit := fs.String("unit", "", "scope -attempt to this plan unit's campaign (empty: first match)")
	asJSON := fs.Bool("json", false, "emit the raw forensics snapshot as JSON")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: hh-why [-attempt N [-unit NAME]] [-json] artifact.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	tool, path := fs.Name(), fs.Arg(0)
	fail := func(err error) int {
		fmt.Fprintln(stderr, "hh-why:", err)
		return 1
	}

	a, err := runartifact.ReadFile(path)
	if err != nil {
		return fail(err)
	}
	if !a.Carries(tool) {
		return fail(fmt.Errorf("%s carries no forensics section (produce it with a current build and -artifact)", path))
	}
	section := runartifact.View(tool)[0]

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(section.Field(a)); err != nil {
			return fail(err)
		}
		return 0
	}

	if *attempt > 0 {
		s := *section.Field(a).(**forensics.Snapshot)
		c, att, ok := s.FindAttempt(*unit, *attempt)
		if !ok {
			if *unit != "" {
				return fail(fmt.Errorf("no attempt %d in unit %q", *attempt, *unit))
			}
			return fail(fmt.Errorf("no attempt %d in any recorded campaign", *attempt))
		}
		if c.Unit != "" {
			fmt.Fprintf(stdout, "unit %s, ", c.Unit)
		}
		forensics.WriteAttempt(stdout, c, att)
		return 0
	}

	fmt.Fprintf(stdout, "%s: tool=%s seed=%d scale=%s simSeconds=%.1f\n\n",
		path, a.Tool, a.Seed, a.Scale, a.SimSeconds)
	if err := a.Render(stdout, tool, 0); err != nil {
		return fail(err)
	}
	return 0
}
