package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const baselines = "../../testdata/baselines/"

// TestGolden: the campaign summary and the attempt-1 lineage of each
// committed baseline match the goldens under testdata/.
func TestGolden(t *testing.T) {
	for _, name := range []string{"short-seed4", "short-escape"} {
		for _, tc := range []struct {
			golden string
			args   []string
		}{
			{"summary-" + name, []string{baselines + name + ".json"}},
			{"attempt1-" + name, []string{"-attempt", "1", baselines + name + ".json"}},
		} {
			t.Run(tc.golden, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				if code := run(tc.args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit = %d, want 0 (stderr %q)", code, stderr.String())
				}
				want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
				if err != nil {
					t.Fatal(err)
				}
				if stdout.String() != string(want) {
					t.Errorf("stdout drifted from the golden:\n%s", stdout.String())
				}
			})
		}
	}
}

// TestExitCodes: usage errors exit 2; a missing section or an unknown
// attempt exits 1 without printing to stdout.
func TestExitCodes(t *testing.T) {
	bare := filepath.Join(t.TempDir(), "bare.json")
	if err := os.WriteFile(bare, []byte(`{"version":1,"tool":"hyperhammer","seed":4}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		code int
		msg  string
	}{
		{"no artifact", nil, 2, "usage: hh-why"},
		{"two artifacts", []string{bare, bare}, 2, "usage: hh-why"},
		{"unknown flag", []string{"-no-such-flag", bare}, 2, "no-such-flag"},
		{"missing section", []string{bare}, 1, "carries no forensics section"},
		{"unknown attempt", []string{"-attempt", "999", baselines + "short-seed4.json"}, 1, "no attempt 999"},
		{"unknown unit", []string{"-attempt", "1", "-unit", "nope", baselines + "short-seed4.json"}, 1, `unit "nope"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit = %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout = %q, want nothing", stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.msg) {
				t.Errorf("stderr = %q, want it to mention %q", stderr.String(), tc.msg)
			}
		})
	}
}

// TestJSONIsTheForensicsSection: -json emits the artifact's forensics
// section as it is stored.
func TestJSONIsTheForensicsSection(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", baselines + "short-seed4.json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d (stderr %q)", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "{\n  \"version\":") || !strings.Contains(stdout.String(), `"campaigns": [`) {
		t.Errorf("-json output is not the forensics snapshot:\n%.300s", stdout.String())
	}
}
