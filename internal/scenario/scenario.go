// Package scenario is the table of the paper's evaluation machines —
// S1 (Intel Core i3-10100), S2 (Intel Xeon E3-2124) and S3 (the S1
// hardware running single-node OpenStack) — at the paper's full scale
// and at a CI-sized short scale.
//
// A Spec splits the way a libvirt/kubevirt VM configuration does: the
// Backend is what the host provides, the VM is the frontend the tenant
// sees. Attacker holds the platform knowledge and budget the attack
// runs with. Values the table can work out — the attacker's bank
// function and host address width — come from the geometry. A study of
// one mechanism starts from a Spec and changes that one field.
package scenario

import (
	"math/bits"

	"hyperhammer/internal/attack"
	"hyperhammer/internal/buddy"
	"hyperhammer/internal/dram"
	"hyperhammer/internal/hostload"
	"hyperhammer/internal/kvm"
	"hyperhammer/internal/memdef"
)

// System identifies one of the paper's evaluation setups (Section 5).
type System int

const (
	// S1 is the Intel Core i3-10100 host with plain KVM.
	S1 System = iota
	// S2 is the Intel Xeon E3-2124 host with plain KVM.
	S2
	// S3 is the S1 hardware running single-node OpenStack.
	S3
)

// String returns the paper's name for the system.
func (s System) String() string {
	if s < S1 || s > S3 {
		return "S?"
	}
	return [...]string{"S1", "S2", "S3"}[s]
}

// Scale selects the machine dimensions.
type Scale int

const (
	// Full is the paper's configuration: 16 GiB hosts, a 13 GiB
	// tenant, 60,000 exhaustion mappings and 12 target bits.
	Full Scale = iota
	// Short is a 4 GiB host and a 3.5 GiB tenant with a denser fault
	// model, so CI runs exercise the same dynamics in seconds.
	Short
)

// String returns "full" or "short", the scale name run artifacts carry.
func (s Scale) String() string {
	if s == Short {
		return "short"
	}
	return "full"
}

// Backend is the host side of a scenario.
type Backend struct {
	Geometry *dram.Geometry
	// Fault is the Rowhammer fault model; HostConfig fills its seed.
	Fault            dram.FaultModelConfig
	THP, NXHugepages bool
	BootNoisePages   int
	// Load is the background host workload: OpenStack's on S3, nil on
	// plain KVM.
	Load *hostload.Profile
}

// Cell is one (S, B) setting of the Table 2 grid: release B page
// blocks, then spray S bytes of EPT-creating executions.
type Cell struct {
	Spray  uint64
	Blocks int
}

// Attacker is the attack's budget on a scenario.
type Attacker struct {
	// IOVAMappings is the vIOMMU exhaustion budget (Section 4.2.1).
	IOVAMappings int
	// TargetBits is how many vulnerable bits one attempt steers onto.
	TargetBits int
	// ProfileSize is how much tenant memory Table 1 profiles.
	ProfileSize uint64
	// Table2 is the (S, B) grid Table 2 sweeps.
	Table2 []Cell
}

// Spec is one system at one scale.
type Spec struct {
	System   System
	Scale    Scale
	Backend  Backend
	VM       kvm.VMConfig // the frontend: the attacker tenant's VM
	Attacker Attacker
}

// Get returns the spec of one system at one scale. Every call builds
// fresh values, so a caller may change any field of what it gets.
func Get(sys System, sc Scale) Spec {
	if sc == Short {
		return short(sys)
	}
	return full(sys)
}

// full is the paper's machines as Section 5.1 describes them.
func full(sys System) Spec {
	sp := Spec{
		System: sys,
		Scale:  Full,
		Backend: Backend{
			Geometry:       dram.CoreI310100(),
			Fault:          dram.S1FaultModel(0),
			THP:            true,
			NXHugepages:    true,
			BootNoisePages: 30000,
		},
		VM: kvm.VMConfig{MemSize: 13 * memdef.GiB, VFIOGroups: 1, BootSplits: 500},
		Attacker: Attacker{
			IOVAMappings: 60000,
			TargetBits:   12,
			ProfileSize:  12 * memdef.GiB,
			Table2: []Cell{{5 * memdef.GiB, 100}, {10 * memdef.GiB, 100},
				{10 * memdef.GiB, 70}, {10 * memdef.GiB, 30}, {10 * memdef.GiB, 20}},
		},
	}
	switch sys {
	case S2:
		sp.Backend.Geometry = dram.XeonE32124()
		sp.Backend.Fault = dram.S2FaultModel(0)
		sp.Backend.BootNoisePages = 34000
	case S3:
		load := hostload.OpenStack()
		sp.Backend.BootNoisePages = 12000 // base host noise; OpenStack adds the rest
		sp.Backend.Load = &load
	}
	return sp
}

// short shrinks the full machine: the same bank function on a 4 GiB
// module with a denser fault model, less noise and load, and a
// proportional tenant, budget and Table 2 grid.
func short(sys System) Spec {
	sp := full(sys)
	sp.Scale = Short
	cpu := "i3-10100"
	if sys == S2 {
		cpu = "Xeon E3-2124"
	}
	sp.Backend.Geometry = dram.MustGeometry(dram.Geometry{
		Name:      "short-4G (" + cpu + " bank function)",
		Size:      4 * memdef.GiB,
		BankMasks: sp.Backend.Geometry.BankMasks,
		RowShift:  18,
		RowBits:   14,
	})
	sp.Backend.Fault = dram.FaultModelConfig{
		CellsPerRow:  0.02,
		ThresholdMin: 120_000, ThresholdMax: 400_000,
		StableFraction: 0.54, FlakyP: 0.35,
		NeighborWeight1: 1.0, NeighborWeight2: 0.25,
	}
	if sys == S2 {
		sp.Backend.Fault.CellsPerRow = 0.05
		sp.Backend.Fault.StableFraction = 0.1
	}
	sp.Backend.BootNoisePages = 2000
	if load := sp.Backend.Load; load != nil {
		sp.Backend.BootNoisePages = 3000
		load.ExtraNoisePages, load.ChurnHeld, load.ChurnPerTick = 6000, 512, 32
	}
	sp.VM.MemSize = 3584 * memdef.MiB
	sp.VM.BootSplits = 150
	q := sp.VM.MemSize / 4
	sp.Attacker = Attacker{
		IOVAMappings: 6000,
		TargetBits:   3,
		ProfileSize:  3 * memdef.GiB,
		Table2:       []Cell{{1 * q, 24}, {2 * q, 24}, {2 * q, 16}, {2 * q, 8}, {2 * q, 4}},
	}
	return sp
}

// HostConfig returns the spec's host for one seed, which drives both
// the fault model and the host's own randomness.
func (s Spec) HostConfig(seed uint64) kvm.Config {
	fault := s.Backend.Fault
	fault.Seed = seed
	return kvm.Config{
		Geometry:       s.Backend.Geometry,
		Fault:          fault,
		Buddy:          buddy.DefaultConfig(),
		THP:            s.Backend.THP,
		NXHugepages:    s.Backend.NXHugepages,
		BootNoisePages: s.Backend.BootNoisePages,
		Seed:           seed,
	}
}

// HostMemBits is the host's physical address width: log2 of the DRAM
// size (34 at full scale, 32 at short).
func (s Spec) HostMemBits() uint {
	return uint(bits.TrailingZeros64(s.Backend.Geometry.Size))
}

// AttackConfig returns the paper's attack parameters with the bank
// function the attacker recovered offline (DRAMDig, Section 5.1), the
// host address width and the spec's budget.
func (s Spec) AttackConfig() attack.Config {
	cfg := attack.DefaultConfig(s.Backend.Geometry.BankMasks)
	cfg.HostMemBits = s.HostMemBits()
	cfg.IOVAMappings = s.Attacker.IOVAMappings
	cfg.TargetBits = s.Attacker.TargetBits
	return cfg
}
