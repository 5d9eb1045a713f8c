package main

import (
	"fmt"

	"hyperhammer"
)

// digest folds simulated figures, word by word, into one FNV-1a
// fingerprint. Two runs of one seed must produce the same digest,
// whatever the host did.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 14695981039346656037} }

func (d *digest) word(v uint64) {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		d.h ^= v & 0xff
		d.h *= prime
		v >>= 8
	}
}

func (d *digest) str(s string) {
	d.word(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		d.word(uint64(s[i]))
	}
}

func (d *digest) flag(b bool) {
	if b {
		d.word(1)
	} else {
		d.word(0)
	}
}

// campaignFigures is everything a campaign round simulated that the
// digest covers: the per-attempt outcomes, the profiled bits, every
// applied flip, the released blocks and the simulated clock.
type campaignFigures struct {
	res *hyperhammer.CampaignResult
	// flips holds (address, bit, direction) per applied flip.
	flips    [][3]uint64
	released []uint64
	simNS    int64
}

func newCampaignFigures(h *hyperhammer.Host, res *hyperhammer.CampaignResult) campaignFigures {
	f := campaignFigures{res: res, simNS: int64(h.Clock.Now())}
	for _, fl := range h.FlipLog() {
		f.flips = append(f.flips, [3]uint64{uint64(fl.Addr), uint64(fl.Bit), uint64(fl.Direction)})
	}
	for _, p := range h.ReleasedBlockLog() {
		f.released = append(f.released, uint64(p))
	}
	return f
}

func (f campaignFigures) digest() uint64 {
	d := newDigest()
	r := f.res
	d.word(uint64(r.ProfiledBits))
	d.word(uint64(r.ProfileDuration))
	d.word(uint64(len(r.Attempts)))
	for _, a := range r.Attempts {
		d.word(uint64(a.Index))
		d.str(a.Outcome)
		for _, v := range []int{a.UsableBits, a.Released, a.Splits, a.Changes, a.Candidates, a.Confirmed} {
			d.word(uint64(v))
		}
		d.flag(a.Success)
		d.word(uint64(a.Duration))
		d.word(uint64(a.SteerDuration))
		d.word(uint64(a.ExploitDuration))
	}
	d.word(uint64(r.Successes))
	d.word(uint64(r.FirstSuccessAttempt))
	for _, t := range []int64{int64(r.TimeToFirstSuccess), int64(r.TotalDuration),
		int64(r.SteerTime), int64(r.ExploitTime), int64(r.RebootTime), int64(r.SetupTime)} {
		d.word(uint64(t))
	}
	d.word(uint64(len(f.flips)))
	for _, fl := range f.flips {
		d.word(fl[0])
		d.word(fl[1])
		d.word(fl[2])
	}
	d.word(uint64(len(f.released)))
	for _, p := range f.released {
		d.word(p)
	}
	d.word(uint64(f.simNS))
	return d.h
}

// check verifies the campaign's own invariants and returns one line
// per violation, plus how many attempts it counts as failed. budget is
// the fixed attempt budget; every escape must have been verified
// against the planted secret, which must still read its value.
func (f campaignFigures) check(budget int, secretIntact bool) (failed int, problems []string) {
	r := f.res
	if len(r.Attempts) != budget {
		problems = append(problems, fmt.Sprintf("campaign ran %d attempts, want %d", len(r.Attempts), budget))
	}
	if r.ProfiledBits == 0 {
		problems = append(problems, "profile found no exploitable bits")
	}
	if !secretIntact {
		problems = append(problems, "planted secret no longer reads its value")
	}
	escapes := 0
	for _, a := range r.Attempts {
		bad := false
		switch {
		case a.Outcome == "error" || a.Outcome == "":
			bad = true
			problems = append(problems, fmt.Sprintf("attempt %d ended in error", a.Index))
		case a.Success && a.Outcome != "escaped":
			bad = true
			problems = append(problems, fmt.Sprintf("attempt %d counted as escape with outcome %q", a.Index, a.Outcome))
		case !a.Success && a.Outcome == "escaped":
			bad = true
			problems = append(problems, fmt.Sprintf("attempt %d escaped but was not counted", a.Index))
		}
		if a.Success {
			escapes++
		}
		if bad {
			failed++
		}
	}
	if escapes != r.Successes {
		problems = append(problems, fmt.Sprintf("campaign counts %d escapes, attempts show %d", r.Successes, escapes))
	}
	return failed, problems
}

// cellFigures is one Table 2 cell's result: the paper's N, E and R for
// one (system, S, B) setting, with the host's simulated clock.
type cellFigures struct {
	sys      system
	spray    uint64
	blocks   int
	released int // N
	eptPages int // E
	reused   int // R
	simNS    int64
}

func (c cellFigures) rn() float64 { return float64(c.reused) / float64(c.released) }
func (c cellFigures) re() float64 { return float64(c.reused) / float64(c.eptPages) }

// check verifies the cell against Table 2's definitions: N = 512·B and
// R ≤ min(N, E).
func (c cellFigures) check(wantBlocks int) []string {
	var problems []string
	name := fmt.Sprintf("%s S=%dGiB B=%d", c.sys, c.spray/hyperhammer.GiB, wantBlocks)
	if c.blocks != wantBlocks {
		problems = append(problems, fmt.Sprintf("%s: released %d blocks", name, c.blocks))
	}
	if c.released != 512*wantBlocks {
		problems = append(problems, fmt.Sprintf("%s: N=%d, want 512·B=%d", name, c.released, 512*wantBlocks))
	}
	if c.eptPages <= 0 {
		problems = append(problems, fmt.Sprintf("%s: no EPT pages", name))
	}
	if c.reused < 0 || c.reused > c.released || c.reused > c.eptPages {
		problems = append(problems, fmt.Sprintf("%s: R=%d exceeds min(N=%d, E=%d)", name, c.reused, c.released, c.eptPages))
	}
	return problems
}

func gridDigest(cells []cellFigures) uint64 {
	d := newDigest()
	d.word(uint64(len(cells)))
	for _, c := range cells {
		d.word(uint64(c.sys))
		d.word(c.spray)
		for _, v := range []int{c.blocks, c.released, c.eptPages, c.reused} {
			d.word(uint64(v))
		}
		d.word(uint64(c.simNS))
	}
	return d.h
}

// ratio is a/b, or 0 when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
