package experiments

import (
	"time"

	"hyperhammer/internal/attack"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/report"
)

// VMSizeRow is one point of the Section 5.3.1 sensitivity analysis:
// how the attack's prospects scale with the share of host memory the
// attacker's VM gets.
type VMSizeRow struct {
	// GuestMem is the VM size.
	GuestMem uint64
	// Bound is the per-attempt success bound.
	Bound float64
	// ExpectedAttempts is its reciprocal.
	ExpectedAttempts float64
	// TargetBits is the most vulnerable bits one attempt can exploit
	// (1 GiB of guest memory per bit, Section 4.3).
	TargetBits int
	// ExpectedDays is the end-to-end estimate with the paper's S1
	// profiling inputs scaled to the profiled fraction of the VM.
	ExpectedDays float64
}

// VMSizeResult is the sweep over guest sizes on a 16 GiB host.
type VMSizeResult struct {
	HostMem uint64
	Rows    []VMSizeRow
}

// Table renders the sweep.
func (r *VMSizeResult) Table() *report.Table {
	t := report.NewTable(
		"Section 5.3.1 sensitivity: attack prospects vs attacker VM size (16 GiB host)",
		"VM size", "bound (1/attempts)", "expected attempts", "max bits/attempt", "end-to-end est.")
	for _, row := range r.Rows {
		t.AddRow(
			report.Percent(float64(row.GuestMem)/float64(r.HostMem))+" of host",
			row.Bound, row.ExpectedAttempts, row.TargetBits,
			report.FormatDuration(time.Duration(row.ExpectedDays*24)*time.Hour))
	}
	return t
}

// VMSize computes the Section 5.3.1 sensitivity sweep. The per-attempt
// success bound scales with the EPTE spray the VM can afford — 1 GiB
// of guest memory per exploited bit (Section 4.3) — so a small VM both
// tries fewer bits per attempt and needs proportionally more attempts.
// Per-attempt profiling cost shrinks with the bit budget (the
// economics cancel to first order), but the fixed per-attempt overhead
// (steering, marking, respawn and reboot) is amplified by the inflated
// attempt count, so the total grows as VMs shrink — the paper's "in
// the case that the VM is relatively small, the attack is likely to
// be much longer".
func VMSize(o Options) *VMSizeResult {
	_, hostMem := analysisMem()
	res := &VMSizeResult{HostMem: hostMem}
	// The paper's S1 profiling economics: a full 12 GiB profile takes
	// 72 h and yields 96 exploitable bits; steering, exploitation and
	// the respawn cost ~10 min per attempt on top.
	const fullProfileHours = 72.0
	const fullProfileBits = 96.0
	const overheadHours = 10.0 / 60.0
	for _, gib := range []uint64{2, 4, 8, 13} {
		guestMem := gib * memdef.GiB
		// Usable memory after the guest's own OS: roughly 1 GiB per
		// exploited bit, at least one.
		bits := int(gib) - 1
		if bits < 1 {
			bits = 1
		}
		sprayMem := uint64(bits) * memdef.GiB
		bound := attack.SuccessBound(sprayMem, hostMem)
		attempts := attack.ExpectedAttempts(sprayMem, hostMem)
		perAttemptHours := fullProfileHours*float64(bits)/fullProfileBits + overheadHours
		days := perAttemptHours * attempts / 24
		res.Rows = append(res.Rows, VMSizeRow{
			GuestMem:         guestMem,
			Bound:            bound,
			ExpectedAttempts: attempts,
			TargetBits:       bits,
			ExpectedDays:     days,
		})
	}
	return res
}
