package main

import "hyperhammer"

// system names one of the paper's three evaluation hosts.
type system int

const (
	sysS1 system = iota
	sysS2
	sysS3
)

func (s system) String() string { return [...]string{"S1", "S2", "S3"}[s] }

// cell is one (S, B) setting of the Table 2 grid.
type cell struct {
	spray  uint64
	blocks int
}

// scale bundles the machine and attack dimensions one run uses. The
// full scale is the paper's configuration, the one experiments.Table2
// and experiments.Table3 run: a 16 GiB host, a 13 GiB tenant, 60,000
// exhaustion mappings and 12 target bits. The short scale mirrors the
// repository's CI variant and exists for the benchmark's own tests.
type scale struct {
	name        string
	vm          hyperhammer.VMConfig
	hostMemBits uint
	iovaMaps    int
	targetBits  int
	// attempts is the campaigns' fixed attempt budget. README.md,
	// "Attempt budget", says why it is far below Table 3's.
	attempts int
	grid     []cell
	// host returns the host configuration for one system and seed.
	host func(sys system, seed uint64) hyperhammer.HostConfig
	// load returns the S3 OpenStack workload profile.
	load func() hyperhammer.HostWorkload
}

func fullScale() scale {
	return scale{
		name:        "full",
		vm:          hyperhammer.VMConfig{MemSize: 13 * hyperhammer.GiB, VFIOGroups: 1, BootSplits: 500},
		hostMemBits: 34,
		iovaMaps:    60000,
		targetBits:  12,
		attempts:    8,
		grid: []cell{
			{5 * hyperhammer.GiB, 100},
			{10 * hyperhammer.GiB, 100},
			{10 * hyperhammer.GiB, 70},
			{10 * hyperhammer.GiB, 30},
			{10 * hyperhammer.GiB, 20},
		},
		host: func(sys system, seed uint64) hyperhammer.HostConfig {
			switch sys {
			case sysS2:
				return hyperhammer.S2(seed)
			case sysS3:
				cfg, _ := hyperhammer.S3(seed)
				return cfg
			}
			return hyperhammer.S1(seed)
		},
		load: func() hyperhammer.HostWorkload {
			_, p := hyperhammer.S3(0)
			return p
		},
	}
}

func shortScale() scale {
	vm := hyperhammer.VMConfig{MemSize: 3584 * hyperhammer.MiB, VFIOGroups: 1, BootSplits: 150}
	g := vm.MemSize / 4
	return scale{
		name:        "short",
		vm:          vm,
		hostMemBits: 32,
		iovaMaps:    6000,
		targetBits:  3,
		attempts:    3,
		grid:        []cell{{1 * g, 24}, {2 * g, 24}, {2 * g, 16}, {2 * g, 8}, {2 * g, 4}},
		host: func(sys system, seed uint64) hyperhammer.HostConfig {
			cfg := fullScale().host(sys, seed)
			masks := hyperhammer.S1BankFunction()
			if sys == sysS2 {
				masks = hyperhammer.S2BankFunction()
			}
			geo, err := hyperhammer.NewGeometry(hyperhammer.Geometry{
				Name:      "short-4G (" + sys.String() + ")",
				Size:      4 * hyperhammer.GiB,
				BankMasks: masks,
				RowShift:  18,
				RowBits:   14,
			})
			if err != nil {
				panic(err) // constant geometry: only a bug reaches here
			}
			cfg.Geometry = geo
			cfg.Fault = hyperhammer.FaultModel{
				Seed: seed, CellsPerRow: 0.02,
				ThresholdMin: 120_000, ThresholdMax: 400_000,
				StableFraction: 0.54, FlakyP: 0.35,
				NeighborWeight1: 1.0, NeighborWeight2: 0.25,
			}
			if sys == sysS2 {
				cfg.Fault.CellsPerRow = 0.05
				cfg.Fault.StableFraction = 0.1
			}
			cfg.BootNoisePages = 2000
			if sys == sysS3 {
				cfg.BootNoisePages = 3000
			}
			return cfg
		},
		load: func() hyperhammer.HostWorkload {
			p := fullScale().load()
			p.ExtraNoisePages = 6000
			p.ChurnHeld = 512
			p.ChurnPerTick = 32
			return p
		},
	}
}

// attackConfig is the attacker's configuration for system S1 at this
// scale, as experiments.Table3 builds it.
func (sc scale) attackConfig() hyperhammer.AttackConfig {
	cfg := hyperhammer.DefaultAttackConfig(hyperhammer.S1BankFunction())
	cfg.HostMemBits = sc.hostMemBits
	cfg.IOVAMappings = sc.iovaMaps
	cfg.TargetBits = sc.targetBits
	return cfg
}

// hostConfig is the configuration of one system's host for a run
// seed: the fault model draws from the seed and the host's own
// randomness from the seed and the system, as in experiments.
func (sc scale) hostConfig(sys system, seed uint64) hyperhammer.HostConfig {
	cfg := sc.host(sys, seed)
	cfg.Seed = seed ^ uint64(sys)<<32
	return cfg
}
