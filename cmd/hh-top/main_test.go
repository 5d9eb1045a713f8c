package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hyperhammer/internal/inspect"
	"hyperhammer/internal/metrics"
	"hyperhammer/internal/obs"
	"hyperhammer/internal/telemetry"
)

const baselines = "../../testdata/baselines/"

// TestOnceGolden: hh-top -once renders each committed baseline exactly
// as the goldens under testdata/ record it.
func TestOnceGolden(t *testing.T) {
	for _, name := range []string{"short-seed4", "short-escape"} {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-once", baselines + name + ".json"}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit = %d, want 0 (stderr %q)", code, stderr.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", "once-"+name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if stdout.String() != string(want) {
				t.Errorf("stdout drifted from the golden:\n%s", stdout.String())
			}
		})
	}
}

// TestExitCodes: usage errors exit 2; an unreadable artifact or one
// without the machine sections exits 1.
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
		{"unknown flag", []string{"-no-such-flag"}, 2, "no-such-flag"},
		{"missing file", []string{"-once", filepath.Join(t.TempDir(), "none.json")}, 1, "no such file"},
		{"missing sections", []string{"-once", bare}, 1, "carries no introspection sections"},
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

// TestLiveFrame: one live frame against an obs server draws the
// header from /healthz and the three machine sections fetched from
// their /api endpoints.
func TestLiveFrame(t *testing.T) {
	plane := obs.NewPlane(metrics.New(), obs.Config{})
	plane.SetPlanes(telemetry.Planes{Inspect: inspect.New(inspect.Config{})})
	srv, err := plane.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-url", srv.Addr(), "-iterations", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr %q)", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"\x1b[2J\x1b[Hhh-top  http://" + srv.Addr() + "  sim=0.0s",
		"DRAM activation heatmap", "Memory-layout census", "Watchpoint alerts: 0 fired",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame lacks %q:\n%s", want, out)
		}
	}
}
