package runstore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hyperhammer/internal/ledger"
	"hyperhammer/internal/runartifact"
)

// ingestN opens a fresh store, ingests n test artifacts, closes it and
// returns the directory.
func ingestN(t testing.TB, n int) string {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := s.Ingest(testArtifact(4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func appendIndex(t *testing.T, dir, text string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, indexFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(text); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTornIndexTailIsSkippedAndTruncated: an append cut short leaves
// a final fragment without its newline. The store still opens, and the
// next ingest replaces the fragment instead of joining onto it, so the
// store reopens with every whole entry.
func TestTornIndexTailIsSkippedAndTruncated(t *testing.T) {
	dir := ingestN(t, 2)
	appendIndex(t, dir, `{"seq":3,"runID":"000003-ab`)

	s, err := Open(dir)
	if err != nil {
		t.Fatalf("torn index tail bricked the store: %v", err)
	}
	if n := len(s.Entries()); n != 2 {
		t.Fatalf("opened %d entries, want the 2 whole ones", n)
	}
	e, err := s.Ingest(testArtifact(4))
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq != 3 {
		t.Fatalf("seq after a torn tail = %d, want 3", e.Seq)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after ingest: %v", err)
	}
	defer s2.Close()
	got := s2.Entries()
	if len(got) != 3 || got[2].RunID != e.RunID {
		t.Fatalf("reopened entries = %d (last %+v), want 3 ending in %s", len(got), got[len(got)-1], e.RunID)
	}
}

// TestMalformedIndexLineStillFails: a complete line that does not
// decode is corruption, not an interrupted append.
func TestMalformedIndexLineStillFails(t *testing.T) {
	dir := ingestN(t, 1)
	appendIndex(t, dir, "{\"seq\":\n")
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("Open error = %v, want a line-2 decode error", err)
	}
}

// FuzzIndexOpen: for any index content that Open accepts, an ingest
// succeeds and the store reopens with every entry it had plus the new
// one, last. testdata/fuzz holds the inputs that once failed (a lone
// "}" line ended the index early, hiding every later entry).
func FuzzIndexOpen(f *testing.F) {
	whole, err := os.ReadFile(filepath.Join(ingestN(f, 2), indexFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(whole)
	f.Add(append(append([]byte{}, whole...), `{"seq":3,"ru`...))
	f.Add([]byte(`{"seq":1}`))
	f.Add([]byte("\n\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, indexFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			return
		}
		n := len(s.Entries())
		e, err := s.Ingest(testArtifact(4))
		if err != nil {
			t.Fatalf("ingest into an opened store: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen after ingest: %v", err)
		}
		defer s2.Close()
		got := s2.Entries()
		if len(got) != n+1 || got[n].RunID != e.RunID || got[n].Seq != e.Seq {
			t.Fatalf("reopened %d entries, want %d ending in %s", len(got), n+1, e.RunID)
		}
	})
}

// TestLedgerDriftMovesFingerprint: two runs that differ only in one
// ledger stream are hh-diff-dirty, so their store fingerprints must
// differ too and the trend must report simulated drift.
func TestLedgerDriftMovesFingerprint(t *testing.T) {
	ledgered := func(fp string) *runartifact.Artifact {
		a := testArtifact(4)
		a.Ledger = &ledger.Snapshot{Version: 1, EpochSimSeconds: 0.1, Units: []ledger.UnitLedger{{
			Epochs: []ledger.EpochRecord{},
			Streams: []ledger.StreamFP{
				{Stream: "dram.row", FP: fp, Count: 40},
				{Stream: "kvm.rng", FP: "00000000000000aa", Count: 7},
			},
		}}}
		return a
	}
	a, b := ledgered("0000000000001234"), ledgered("0000000000005678")
	if d := runartifact.Compare(a, b, runartifact.DefaultTolerances()); d.Flagged != 1 {
		t.Fatalf("hh-diff flagged %d rows, want the one ledger stream", d.Flagged)
	}
	fa, fb := a.Fingerprints(), b.Fingerprints()
	if _, ok := fa["ledger"]; !ok {
		t.Fatalf("fingerprints %v lack the ledger section", fa)
	}
	if fa["ledger"] == fb["ledger"] {
		t.Fatal("ledger drift left the ledger fingerprint unchanged")
	}

	e1, e2 := EntryFromArtifact(a), EntryFromArtifact(b)
	e1.Seq, e1.RunID = 1, runIDFor(1)
	e2.Seq, e2.RunID = 2, runIDFor(2)
	g := Build([]IndexEntry{e1, e2}, DefaultTrendOptions()).Groups[0]
	if !g.SimDrift || g.DriftKind != DriftDeterminism || g.FirstDriftSeq != 2 {
		t.Fatalf("trend = drift %v (%s) at seq %d, want determinism drift at seq 2",
			g.SimDrift, g.DriftKind, g.FirstDriftSeq)
	}
	if len(g.DriftFigures) != 1 || g.DriftFigures[0] != "fingerprint[ledger]" {
		t.Fatalf("drift figures = %v, want fingerprint[ledger]", g.DriftFigures)
	}
}
