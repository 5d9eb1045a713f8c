package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hyperhammer/internal/runartifact"
	"hyperhammer/internal/runstore"
)

const baselines = "../../testdata/baselines/"

// TestHistoryGolden: `hh-inspect history` over a store holding both
// committed baselines matches testdata/history.golden, with the store
// path and the ingest timestamps masked.
func TestHistoryGolden(t *testing.T) {
	dir := t.TempDir()
	s, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"short-seed4", "short-escape"} {
		a, err := runartifact.ReadFile(baselines + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Ingest(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"history", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr %q)", code, stderr.String())
	}
	got := strings.Replace(stdout.String(), "in "+dir, "in STORE", 1)
	got = regexp.MustCompile(`\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ`).ReplaceAllString(got, "YYYY-MM-DDTHH:MM:SSZ")
	want, err := os.ReadFile(filepath.Join("testdata", "history.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("stdout drifted from the golden:\n%s", got)
	}
}

// TestExitCodes: usage errors exit 2; a missing input or a damaged
// trace exits 1.
func TestExitCodes(t *testing.T) {
	tmp := t.TempDir()
	damaged := filepath.Join(tmp, "damaged.jsonl")
	if err := os.WriteFile(damaged, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		code int
		msg  string
	}{
		{"no trace", nil, 2, "usage: hh-inspect"},
		{"unknown flag", []string{"-no-such-flag", damaged}, 2, "no-such-flag"},
		{"history without store", []string{"history"}, 2, "usage: hh-inspect history"},
		{"removed artifact verb", []string{"heatmap", baselines + "short-seed4.json"}, 2, "usage: hh-inspect"},
		{"missing trace", []string{filepath.Join(tmp, "none.jsonl")}, 1, "no such file"},
		{"missing store", []string{"history", filepath.Join(tmp, "none")}, 1, "no such file"},
		{"damaged trace", []string{damaged}, 1, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit = %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.msg) {
				t.Errorf("stderr = %q, want it to mention %q", stderr.String(), tc.msg)
			}
		})
	}
}
