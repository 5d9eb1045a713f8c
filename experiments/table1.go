package experiments

import (
	"time"

	"hyperhammer/internal/attack"
	"hyperhammer/internal/guest"
	"hyperhammer/internal/hostload"
	"hyperhammer/internal/kvm"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/report"
)

// Table1Row is one row of Table 1: memory profiling results.
type Table1Row struct {
	System      System
	Time        time.Duration
	Total       int
	OneToZero   int
	ZeroToOne   int
	Stable      int
	Exploitable int
	HammerOps   int
}

// Table1Result holds the full Table 1 reproduction.
type Table1Result struct {
	Rows []Table1Row
}

// Table renders the result in the paper's layout.
func (r *Table1Result) Table() *report.Table {
	t := report.NewTable("Table 1: Results of Memory Profiling",
		"System", "Time", "Total", "1->0", "0->1", "Stable", "Expl.")
	for _, row := range r.Rows {
		t.AddRow(row.System, row.Time, row.Total, row.OneToZero,
			row.ZeroToOne, row.Stable, row.Exploitable)
	}
	return t
}

// Table1 reproduces the Table 1 experiment: profile the attacker VM's
// memory on S1 and S2, reporting flip counts by direction, stability
// and exploitability, plus the simulated profiling time.
func Table1(o Options) (*Table1Result, error) {
	return planOne(o, (*Plan).Table1)
}

// Table1 registers the experiment's per-system profiling runs as
// independent units and returns the future of the assembled table.
func (p *Plan) Table1() *Future[*Table1Result] {
	f := &Future[*Table1Result]{}
	res := &Table1Result{}
	for _, sys := range []System{SystemS1, SystemS2} {
		sys := sys
		addTyped(p, "table1."+sys.String(),
			func(o Options) (Table1Row, error) { return profileSystem(o, sys) },
			func(row Table1Row) { res.Rows = append(res.Rows, row) })
	}
	p.finally(func() error { f.set(res); return nil })
	return f
}

func profileSystem(o Options, sys System) (Table1Row, error) {
	sc := o.scale()
	h, err := o.newHost(sys)
	if err != nil {
		return Table1Row{}, err
	}
	vm, err := h.CreateVM(kvm.VMConfig{MemSize: sc.vmSize, VFIOGroups: 1, BootSplits: sc.bootSplits})
	if err != nil {
		return Table1Row{}, err
	}
	gos := guest.Boot(vm)
	cfg := attackConfig(sc, sys)
	cfg.ProfileHugepages = int(sc.profileSize / memdef.HugePageSize)
	// Nest the attack phases under a per-system span so a cost profile
	// of this run attributes simulated time to S1 and S2 separately
	// (paths like "table1.S1;attack.profile").
	cfg.Planes = o.Planes
	span := o.Trace.StartSpan("table1."+sys.String(), "system", sys.String())
	cfg.Span = span
	prof, err := attack.Profile(gos, cfg)
	span.End()
	if err != nil {
		return Table1Row{}, err
	}
	return Table1Row{
		System:      sys,
		Time:        prof.Duration,
		Total:       prof.Total,
		OneToZero:   prof.OneToZero,
		ZeroToOne:   prof.ZeroToOne,
		Stable:      prof.Stable,
		Exploitable: prof.Exploitable,
		HammerOps:   prof.HammerOps,
	}, nil
}

// attackConfig builds the attacker configuration for one system at a
// scale, using the bank function the attacker recovered offline.
func attackConfig(sc scale, sys System) attack.Config {
	cfg := attack.DefaultConfig(sc.geometry(sys).BankMasks)
	cfg.HostMemBits = sc.hostMemBits
	cfg.IOVAMappings = sc.iovaMaps
	cfg.TargetBits = sc.targetBits
	return cfg
}

// attachS3Load puts the OpenStack workload on a host (Figure 3b's
// starting condition).
func attachS3Load(h *kvm.Host, o Options) error {
	p := hostload.OpenStack()
	if o.Short {
		p.ExtraNoisePages = 6000
		p.ChurnHeld = 512
		p.ChurnPerTick = 32
	}
	_, err := hostload.Attach(h.Buddy, p, o.Seed^0x53)
	return err
}
