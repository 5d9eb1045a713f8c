package experiments

import (
	"fmt"

	"hyperhammer/internal/guest"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/report"
)

// Table2Row is one row of Table 2: pages released by the VM versus
// pages reused by EPTs.
type Table2Row struct {
	System System
	// SprayBytes is the memory used for EPT creation (the paper's S).
	SprayBytes uint64
	// Blocks is the number of released page blocks (the paper's B).
	Blocks int
	// Released is B*512 (the paper's N).
	Released int
	// EPTPages is the number of leaf EPT pages in the system (E).
	EPTPages int
	// Reused is the number of released pages holding EPT pages (R).
	Reused int
}

// RN returns R/N.
func (r Table2Row) RN() float64 {
	if r.Released == 0 {
		return 0
	}
	return float64(r.Reused) / float64(r.Released)
}

// RE returns R/E.
func (r Table2Row) RE() float64 {
	if r.EPTPages == 0 {
		return 0
	}
	return float64(r.Reused) / float64(r.EPTPages)
}

// Table2Result holds the full Table 2 reproduction.
type Table2Result struct {
	Rows []Table2Row
}

// Table renders the result in the paper's layout.
func (r *Table2Result) Table() *report.Table {
	t := report.NewTable(
		"Table 2: pages released from the VM and released pages reused by EPTs",
		"Setting", "S", "B", "N", "E", "R", "R_N", "R_E")
	for _, row := range r.Rows {
		t.AddRow(row.System,
			fmt.Sprintf("%d GB", row.SprayBytes/memdef.GiB),
			row.Blocks, row.Released, row.EPTPages, row.Reused,
			report.Percent(row.RN()), report.Percent(row.RE()))
	}
	return t
}

// Table2 reproduces the Table 2 experiment on all three systems: for
// each (S, B) setting, exhaust the host's noise pages through vIOMMU,
// release B page blocks through the modified virtio-mem driver,
// trigger EPT creation over S bytes of the VM's memory, and use the
// hypervisor's released-PFN log and EPT-page dump to count reuse.
func Table2(o Options) (*Table2Result, error) {
	return planOne(o, (*Plan).Table2)
}

// Table2 registers each (system, S, B) row as an independent unit —
// every row boots its own fresh host — and returns the future of the
// assembled table.
func (p *Plan) Table2() *Future[*Table2Result] {
	f := &Future[*Table2Result]{}
	res := &Table2Result{}
	for _, sys := range []System{SystemS1, SystemS2, SystemS3} {
		for _, cell := range p.o.spec(sys).Attacker.Table2 {
			sys, spray, blocks := sys, cell.Spray, cell.Blocks
			addTyped(p, fmt.Sprintf("table2.%s.S%d.B%d", sys, spray, blocks),
				func(o Options) (Table2Row, error) {
					row, err := table2Run(o, sys, spray, blocks)
					if err != nil {
						return Table2Row{}, fmt.Errorf("table 2 %s S=%d B=%d: %w", sys, spray, blocks, err)
					}
					return row, nil
				},
				func(row Table2Row) { res.Rows = append(res.Rows, row) })
		}
	}
	p.finally(func() error { f.set(res); return nil })
	return f
}

// table2Run performs one steering measurement on a fresh host.
func table2Run(o Options, sys System, sprayBytes uint64, blocks int) (Table2Row, error) {
	sp := o.spec(sys)
	h, err := o.newHost(sp)
	if err != nil {
		return Table2Row{}, err
	}
	vm, err := h.CreateVM(sp.VM)
	if err != nil {
		return Table2Row{}, err
	}
	gos := guest.Boot(vm)
	gos.InstallAttackDriver()

	n := gos.FreeHugepages()
	base, err := gos.AllocHuge(n)
	if err != nil {
		return Table2Row{}, err
	}

	// Step 1: exhaust noise pages (Section 4.2.1).
	iova := memdef.IOVA(0x1_0000_0000)
	for m := 0; m < sp.Attacker.IOVAMappings; m++ {
		if err := gos.MapDMA(0, iova, base); err != nil {
			return Table2Row{}, err
		}
		iova += memdef.HugePageSize
	}

	// Step 2: release B blocks (Section 4.2.2). The Table 2 workload
	// releases arbitrary blocks — reuse statistics do not depend on
	// the blocks being Rowhammer-vulnerable. Spread them through the
	// buffer, skipping the DMA target's hugepage.
	if blocks >= n-1 {
		return Table2Row{}, fmt.Errorf("experiments: B=%d too large for %d hugepages", blocks, n)
	}
	stride := (n - 1) / blocks
	released := 0
	for i := 1; i < n && released < blocks; i += stride {
		if err := gos.ReleaseHugepage(base + memdef.GVA(i)*memdef.HugePageSize); err != nil {
			return Table2Row{}, err
		}
		released++
	}

	// Step 3: trigger EPT creation over S bytes (Section 4.2.3).
	sprayHugepages := int(sprayBytes / memdef.HugePageSize)
	sprayed := 0
	for i := 0; i < n && sprayed < sprayHugepages; i++ {
		gva := base + memdef.GVA(i)*memdef.HugePageSize
		if _, err := gos.GPAOf(gva); err != nil {
			continue // released
		}
		if _, err := gos.Exec(gva); err != nil {
			return Table2Row{}, err
		}
		sprayed++
	}

	stats := vm.EPTReuse()
	return Table2Row{
		System:     sys,
		SprayBytes: sprayBytes,
		Blocks:     stats.ReleasedBlocks,
		Released:   stats.ReleasedPages,
		EPTPages:   stats.EPTPages,
		Reused:     stats.ReusedPages,
	}, nil
}
