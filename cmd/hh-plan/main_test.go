package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hyperhammer/internal/obs"
)

const baselines = "../../testdata/baselines/"

// TestArtifactGolden: hh-plan -artifact renders the committed
// baseline's plan section exactly as testdata/ records it.
func TestArtifactGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-artifact", baselines + "short-seed4.json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr %q)", code, stderr.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "artifact-short-seed4.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if stdout.String() != string(want) {
		t.Errorf("stdout drifted from the golden:\n%s", stdout.String())
	}
}

// TestExitCodes: usage errors exit 2; an artifact without a plan
// section exits 1 before printing anything.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		msg  string
	}{
		{"unknown flag", []string{"-no-such-flag"}, 2, "no-such-flag"},
		{"missing section", []string{"-artifact", baselines + "short-escape.json"}, 1, "carries no plan section"},
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

// TestLiveOnce: -once fetches /api/plan a single time and draws it
// without clearing the screen; before any batch ran the report is
// empty, not an error.
func TestLiveOnce(t *testing.T) {
	srv, err := obs.NewPlane(nil, obs.Config{}).Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-once", "-url", srv.Addr()}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr %q)", code, stderr.String())
	}
	want := "hh-plan  http://" + srv.Addr() + "  (refresh 2s)\n\nplan: 0 units on 0 workers\n"
	if !strings.HasPrefix(stdout.String(), want) || !strings.HasSuffix(stdout.String(), "(no units scheduled)\n") {
		t.Errorf("frame = %q, want it to start %q and show an empty schedule", stdout.String(), want)
	}
}
