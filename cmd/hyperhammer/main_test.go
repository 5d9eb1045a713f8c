package main

import (
	"bufio"
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
		"-artifact string",
		"-attempts int",
		"-chrome-trace string",
		"-hammer-rounds int",
		"-ledger-epoch duration",
		"-metrics string",
		"-metrics-table",
		"-obs string",
		"-obs-hold duration",
		"-obs-sample duration 1s",
		"-seed uint",
		"-short",
		"-store string",
		"-trace string",
	}
	got := flagList(t)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("flags:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestUsageErrorExitsTwo: an unknown flag is a usage error.
func TestUsageErrorExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
}

// readArtifact decodes the run bundle at path.
func readArtifact(t *testing.T, path string) map[string]json.RawMessage {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var a map[string]json.RawMessage
	if err := json.Unmarshal(b, &a); err != nil {
		t.Fatalf("artifact %s: %v", path, err)
	}
	return a
}

// TestNoEscapeExitsOne: a budget that ends without an escape exits 1
// and still writes the artifact, outcome rows included.
func TestNoEscapeExitsOne(t *testing.T) {
	dir := t.TempDir()
	art := filepath.Join(dir, "a.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-short", "-attempts", "1", "-artifact", art}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "no escape within 1 attempts") {
		t.Errorf("stdout lacks the no-escape line:\n%s", stdout.String())
	}
	var outcome map[string]float64
	if err := json.Unmarshal(readArtifact(t, art)["outcome"], &outcome); err != nil {
		t.Fatal(err)
	}
	if outcome["attempts"] != 1 || outcome["successes"] != 0 {
		t.Errorf("outcome = %v", outcome)
	}
}

// TestObsLeavesProfileUnchanged: with -obs the live plane taps the
// trace recorder the host's cost profiler already folds; every span
// must still be counted once, exactly as without -obs.
func TestObsLeavesProfileUnchanged(t *testing.T) {
	dir := t.TempDir()
	profiles := map[string]json.RawMessage{}
	for name, extra := range map[string][]string{"bare": nil, "obs": {"-obs", "127.0.0.1:0"}} {
		art := filepath.Join(dir, name+".json")
		var stdout, stderr bytes.Buffer
		run(append([]string{"-short", "-attempts", "1", "-artifact", art}, extra...), &stdout, &stderr)
		profiles[name] = readArtifact(t, art)["profile"]
	}
	if !bytes.Contains(profiles["bare"], []byte(`"attack.campaign;attack.attempt"`)) {
		t.Fatalf("profile section lacks the attempt spans: %s", profiles["bare"])
	}
	if !bytes.Equal(profiles["bare"], profiles["obs"]) {
		t.Errorf("profile differs with -obs:\nbare: %s\nobs:  %s", profiles["bare"], profiles["obs"])
	}
}

// TestFailedOutputStillFlushesEverything: an unwritable -metrics path
// is reported, but the artifact and the whole trace are still written.
func TestFailedOutputStillFlushesEverything(t *testing.T) {
	dir := t.TempDir()
	art := filepath.Join(dir, "a.json")
	tr := filepath.Join(dir, "t.jsonl")
	metricsPath := filepath.Join(dir, "missing", "m.prom")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-short", "-attempts", "1", "-artifact", art, "-trace", tr, "-metrics", metricsPath}, &stdout, &stderr)
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "hyperhammer: open "+metricsPath) {
		t.Errorf("stderr does not report the metrics failure:\n%s", stderr.String())
	}
	if _, ok := readArtifact(t, art)["outcome"]; !ok {
		t.Error("artifact lacks its outcome section")
	}
	assertTraceComplete(t, tr, "attack.campaign")
}

// assertTraceComplete checks every line of the JSONL trace at path
// decodes and that the last event ends the named span.
func assertTraceComplete(t *testing.T, path, lastSpan string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type event struct {
		Kind string         `json:"kind"`
		Data map[string]any `json:"data"`
	}
	var last event
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	n := 0
	for sc.Scan() {
		n++
		last = event{}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("trace line %d: %v", n, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if last.Kind != "span.end" || last.Data["name"] != lastSpan {
		t.Errorf("trace of %d events ends with %s %v, want the %s span end", n, last.Kind, last.Data["name"], lastSpan)
	}
}
