package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// flagList runs the command with -h and returns one "-name type
// default" line per flag, as the usage text prints them.
func flagList(t *testing.T) []string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h exit = %d, want 0", code)
	}
	head := regexp.MustCompile(`^  -(\S+)(?: (\S+))?$`)
	def := regexp.MustCompile(`\(default (.*)\)$`)
	var flags []string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if m := head.FindStringSubmatch(line); m != nil {
			flags = append(flags, strings.TrimSpace("-"+m[1]+" "+m[2]))
		} else if m := def.FindStringSubmatch(line); m != nil && len(flags) > 0 {
			flags[len(flags)-1] += " " + m[1]
		}
	}
	return flags
}

// TestFlagsGolden pins the command's flag names and defaults: no knob
// is added or removed.
func TestFlagsGolden(t *testing.T) {
	want := []string{
		"-ablations",
		"-all",
		"-analysis",
		"-artifact string",
		"-attempts int",
		"-chrome-trace string",
		"-extras",
		"-figure",
		"-ledger-epoch duration",
		"-metrics string",
		"-obs string",
		"-obs-hold duration",
		"-obs-sample duration 1s",
		"-parallel int",
		"-seed uint 1",
		"-short",
		"-store string",
		"-table value",
		"-trace string",
	}
	got := flagList(t)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("flags:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestNothingSelectedExitsTwo: a run that selects no experiment is a
// usage error, as is an unknown flag.
func TestNothingSelectedExitsTwo(t *testing.T) {
	for _, args := range [][]string{{"-short"}, {"-no-such-flag"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit = %d, want 2", args, code)
		}
	}
}

// section returns one top-level section of the run bundle at path, as
// written.
func section(t *testing.T, path, name string) json.RawMessage {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var a map[string]json.RawMessage
	if err := json.Unmarshal(b, &a); err != nil {
		t.Fatalf("artifact %s: %v", path, err)
	}
	return a[name]
}

// TestObsLeavesProfileUnchanged: serving the live plane taps the
// shared trace recorder, which replays every absorbed unit, while the
// cost profile absorbs each unit's own profile. Every span must still
// be counted once, exactly as without -obs. (Table 1 rather than
// Table 2: Table 2's units open no spans, so its profile is empty.)
func TestObsLeavesProfileUnchanged(t *testing.T) {
	dir := t.TempDir()
	profiles := map[string]json.RawMessage{}
	for name, extra := range map[string][]string{"bare": nil, "obs": {"-obs", "127.0.0.1:0"}} {
		art := filepath.Join(dir, name+".json")
		args := append([]string{"-short", "-table", "1", "-artifact", art}, extra...)
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit = %d\nstderr: %s", args, code, stderr.String())
		}
		profiles[name] = section(t, art, "profile")
	}
	if !bytes.Contains(profiles["bare"], []byte(`"path"`)) {
		t.Fatalf("profile section has no entries: %s", profiles["bare"])
	}
	if !bytes.Equal(profiles["bare"], profiles["obs"]) {
		t.Errorf("profile differs with -obs:\nbare: %s\nobs:  %s", profiles["bare"], profiles["obs"])
	}
}

// TestFailedOutputExitsOne: an unwritable -metrics path is reported
// and fails the run, but the artifact and the trace are still written.
func TestFailedOutputExitsOne(t *testing.T) {
	dir := t.TempDir()
	art := filepath.Join(dir, "a.json")
	tr := filepath.Join(dir, "t.jsonl")
	var stdout, stderr bytes.Buffer
	args := []string{"-short", "-table", "1", "-artifact", art, "-trace", tr,
		"-metrics", filepath.Join(dir, "missing", "m.prom")}
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(stdout.String(), "Table 1") {
		t.Errorf("stdout lacks Table 1:\n%s", stdout.String())
	}
	if section(t, art, "profile") == nil {
		t.Error("artifact lacks its profile section")
	}
	b, err := os.ReadFile(tr)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if last := lines[len(lines)-1]; !strings.Contains(last, `"kind":"span.end"`) || !strings.Contains(last, `"name":"table1.S2"`) {
		t.Errorf("trace of %d events ends with %s, want the table1.S2 span end", len(lines), last)
	}
}
