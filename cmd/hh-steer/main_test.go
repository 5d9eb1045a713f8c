package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrorsExitTwo covers every rejected knob: a block count or
// spray size that cannot describe a steering run exits 2 before the
// host boots, and a block count the tenant's hugepages cannot hold
// exits 2 before the exhaustion step.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		msg  string
	}{
		{"zero blocks", []string{"-blocks", "0"}, "-blocks >= 1"},
		{"negative blocks", []string{"-blocks", "-5"}, "-blocks >= 1"},
		{"negative spray", []string{"-spray", "-1"}, "-spray >= 0"},
		{"blocks beyond hugepages", []string{"-blocks", "7000"}, "fewer blocks than"},
		{"unknown flag", []string{"-no-such-flag"}, "no-such-flag"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit = %d, want 2 (stderr %q)", code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout = %q, want nothing before the rejection", stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.msg) {
				t.Errorf("stderr = %q, want it to mention %q", stderr.String(), tc.msg)
			}
		})
	}
}

// TestSteerRunExitsZero runs a small steering pass on the full S1
// machine and checks the report's shape.
func TestSteerRunExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-blocks", "4", "-spray", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr %q)", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"noise pages after 60,000 vIOMMU mappings:",
		"released 4 blocks (2048 pages)",
		"sprayed 512 hugepage executions",
		"EPT reuse: N=2048 ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
}
