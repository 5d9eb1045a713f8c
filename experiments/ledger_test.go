package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"hyperhammer/internal/ledger"
)

// ledgerRun executes a small plan with a determinism ledger attached
// at the given worker count and returns the marshaled snapshot —
// exactly the bytes a run artifact's ledger section would embed. Every
// host boots through the one path, newHost over a scenario spec; the
// units cover each kind of spec it gets: the run-scale machines with
// S3's background load (Table 1, Figure 3), the short S1 the mechanism
// studies use at any scale (the sidedness ablation) and a short S1
// with one backend field changed (the THP ablation).
func ledgerRun(t *testing.T, parallel int) []byte {
	t.Helper()
	o := shortOpts()
	o.Parallel = parallel
	o.Ledger = ledger.New(ledger.Config{Epoch: 250 * time.Millisecond})

	p := NewPlan(o)
	p.Table1()
	p.Figure3()
	p.AblationSidedness()
	p.AblationTHP()
	if err := p.Run(); err != nil {
		t.Fatalf("plan run (parallel=%d): %v", parallel, err)
	}
	out, err := json.Marshal(o.Ledger.Snapshot())
	if err != nil {
		t.Fatalf("marshal ledger: %v", err)
	}
	return out
}

// TestParallelLedgerMatchesSequential is the ledger's own determinism
// gate: the fingerprint streams a plan folds at -parallel 1 and
// -parallel 4 must marshal byte-identically, because scoped recorders
// absorb in declaration order regardless of completion order.
func TestParallelLedgerMatchesSequential(t *testing.T) {
	seq := ledgerRun(t, 1)
	par := ledgerRun(t, 4)
	if !bytes.Equal(seq, par) {
		t.Errorf("ledgers differ between parallel 1 and 4:\nseq: %s\npar: %s", seq, par)
	}

	// The snapshot must carry real content, not a vacuous match: every
	// unit present, with sealed epochs and the core subsystem streams.
	var snap ledger.Snapshot
	if err := json.Unmarshal(seq, &snap); err != nil {
		t.Fatalf("unmarshal ledger: %v", err)
	}
	var units []string
	for _, u := range snap.Units {
		units = append(units, u.Unit)
	}
	want := []string{"table1.S1", "table1.S2", "figure3.S1", "figure3.S2", "figure3.S3",
		"ablation.sidedness", "ablation.thp.on", "ablation.thp.off"}
	if fmt.Sprint(units) != fmt.Sprint(want) {
		t.Fatalf("units = %v, want %v", units, want)
	}
	hammered := false
	for _, u := range snap.Units {
		if len(u.Epochs) == 0 {
			t.Errorf("unit %s sealed no epochs", u.Unit)
		}
		streams := map[string]uint64{}
		for _, s := range u.Streams {
			streams[s.Stream] = s.Count
		}
		// Every hooked subsystem declares its stream on every unit; the
		// hammer-path streams only carry counts on the hammering units.
		for _, want := range []string{"kvm.rng", "dram.rng", "dram.row",
			"dram.flip", "phys.flip", "buddy.alloc", "ept.mutation",
			"guest.mapping"} {
			if _, ok := streams[want]; !ok {
				t.Errorf("unit %s: stream %q missing", u.Unit, want)
			}
		}
		if streams["kvm.rng"] == 0 || streams["buddy.alloc"] == 0 {
			t.Errorf("unit %s: boot-path streams empty: %v", u.Unit, streams)
		}
		if streams["dram.row"] > 0 && streams["dram.flip"] > 0 {
			hammered = true
		}
	}
	if !hammered {
		t.Error("no unit carried DRAM hammer stream counts")
	}
}
