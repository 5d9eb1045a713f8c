package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hyperhammer/internal/runartifact"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadArtifact(t *testing.T) {
	path := writeTemp(t, "art.json", `{"version":1,"tool":"hyperhammer","seed":4,"simSeconds":1.5,"metrics":{}}`)
	a, b, err := load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if a == nil || b != nil {
		t.Fatalf("want artifact, got (artifact=%v, bench=%v)", a != nil, b != nil)
	}
	if a.Seed != 4 {
		t.Errorf("seed = %d, want 4", a.Seed)
	}
}

func TestLoadBench(t *testing.T) {
	path := writeTemp(t, "bench.json", `{"generatedAt":"2026-01-01T00:00:00Z","benchmarks":[]}`)
	a, b, err := load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if a != nil || b == nil {
		t.Fatalf("want bench, got (artifact=%v, bench=%v)", a != nil, b != nil)
	}
}

// A truncated artifact must produce a clear corruption message, not a
// bench-decoder fallback error.
func TestLoadTruncatedArtifact(t *testing.T) {
	path := writeTemp(t, "trunc.json", `{"version":1,"tool":"hyperhammer","seed":4,"metr`)
	_, _, err := load(path)
	if err == nil {
		t.Fatal("load succeeded on a truncated artifact")
	}
	if !strings.Contains(err.Error(), "corrupt or truncated JSON") {
		t.Errorf("error %q does not name the corruption", err)
	}
	if strings.Contains(err.Error(), "bench") {
		t.Errorf("error %q blames the bench decoder for a damaged artifact", err)
	}
}

func TestLoadEmptyFile(t *testing.T) {
	path := writeTemp(t, "empty.json", "")
	_, _, err := load(path)
	if err == nil {
		t.Fatal("load succeeded on an empty file")
	}
	if !strings.Contains(err.Error(), "corrupt or truncated JSON") {
		t.Errorf("error %q does not name the corruption", err)
	}
}

func TestLoadUnknownDocument(t *testing.T) {
	path := writeTemp(t, "other.json", `{"hello":"world"}`)
	_, _, err := load(path)
	if err == nil {
		t.Fatal("load succeeded on an unrelated JSON document")
	}
	if !strings.Contains(err.Error(), "neither a run artifact") {
		t.Errorf("error %q does not explain the document kind", err)
	}
}

func TestLoadFutureArtifactVersion(t *testing.T) {
	path := writeTemp(t, "future.json", `{"version":99,"tool":"hyperhammer","metrics":{}}`)
	_, _, err := load(path)
	if err == nil {
		t.Fatal("load accepted an artifact from the future")
	}
	if !strings.Contains(err.Error(), "newer than supported") {
		t.Errorf("error %q does not report the version mismatch", err)
	}
}

// TestConfigNotice: the same-config context line appears exactly when
// the runs' deterministic config hashes differ, including for
// artifacts written before the header carried a hash.
func TestConfigNotice(t *testing.T) {
	mk := func(rounds string) *runartifact.Artifact {
		a := runartifact.New("hyperhammer", 4, "short")
		a.Config["hammer-rounds"] = rounds
		return a
	}
	if got := configNotice(mk("150000"), mk("150000")); got != "" {
		t.Errorf("same-config comparison produced a notice: %q", got)
	}
	got := configNotice(mk("150000"), mk("400000"))
	if !strings.Contains(got, "comparing same-config runs? no") {
		t.Errorf("different-config notice missing: %q", got)
	}

	// Stamped headers win over recomputation; a pre-hash artifact
	// (empty header field) is hashed on the fly and still matches.
	stamped := mk("150000")
	stamped.Stamp()
	if got := configNotice(stamped, mk("150000")); got != "" {
		t.Errorf("stamped-vs-legacy same-config comparison produced a notice: %q", got)
	}

	// Host-only config keys never trigger the notice (they are
	// excluded from the hash by design).
	hostOnly := mk("150000")
	hostOnly.Config["parallel"] = "8"
	if got := configNotice(mk("150000"), hostOnly); got != "" {
		t.Errorf("host-only config change produced a notice: %q", got)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, _, err := load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("load succeeded on a missing file")
	}
}

// TestAllGolden: `hh-diff -all` of the two committed baselines prints
// every compared figure exactly as testdata/all-seed4-escape.golden
// records it, and exits 1 because they differ.
func TestAllGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-all", "../../testdata/baselines/short-seed4.json", "../../testdata/baselines/short-escape.json"}
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr %q)", code, stderr.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "all-seed4-escape.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if stdout.String() != string(want) {
		t.Errorf("stdout drifted from the golden:\n%s", stdout.String())
	}
}

// TestUsageExitsTwo: a wrong argument count or an unknown flag exits 2.
func TestUsageExitsTwo(t *testing.T) {
	for _, args := range [][]string{nil, {"only.json"}, {"-no-such-flag", "a", "b"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%q) exit = %d, want 2", args, code)
		}
	}
}
