package scenario_test

import (
	"reflect"
	"testing"

	"hyperhammer"
	"hyperhammer/internal/attack"
	"hyperhammer/internal/buddy"
	"hyperhammer/internal/dram"
	"hyperhammer/internal/hostload"
	"hyperhammer/internal/kvm"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/scenario"
)

var (
	systems = []scenario.System{scenario.S1, scenario.S2, scenario.S3}
	scales  = []scenario.Scale{scenario.Full, scenario.Short}
)

// TestFacadeMachines pins the facade's S1/S2/S3 to the host
// configurations they have always returned, field for field: the
// benchmark program and every stored run build on them.
func TestFacadeMachines(t *testing.T) {
	const seed = 77
	s1 := kvm.Config{
		Geometry:       dram.CoreI310100(),
		Fault:          dram.S1FaultModel(seed),
		Buddy:          buddy.DefaultConfig(),
		THP:            true,
		NXHugepages:    true,
		BootNoisePages: 30000,
		Seed:           seed,
	}
	s2 := s1
	s2.Geometry = dram.XeonE32124()
	s2.Fault = dram.S2FaultModel(seed)
	s2.BootNoisePages = 34000
	s3 := s1
	s3.BootNoisePages = 12000

	if got := hyperhammer.S1(seed); !reflect.DeepEqual(got, s1) {
		t.Errorf("S1 = %+v, want %+v", got, s1)
	}
	if got := hyperhammer.S2(seed); !reflect.DeepEqual(got, s2) {
		t.Errorf("S2 = %+v, want %+v", got, s2)
	}
	got, load := hyperhammer.S3(seed)
	if !reflect.DeepEqual(got, s3) {
		t.Errorf("S3 = %+v, want %+v", got, s3)
	}
	if load != hostload.OpenStack() {
		t.Errorf("S3 load = %+v, want OpenStack %+v", load, hostload.OpenStack())
	}
	if !reflect.DeepEqual(hyperhammer.S1BankFunction(), s1.Geometry.BankMasks) ||
		!reflect.DeepEqual(hyperhammer.S2BankFunction(), s2.Geometry.BankMasks) {
		t.Error("facade bank functions differ from the S1/S2 geometries")
	}
	full := scenario.Get(scenario.S1, scenario.Full)
	if got, want := full.AttackConfig(), attack.DefaultConfig(s1.Geometry.BankMasks); !reflect.DeepEqual(got, want) {
		t.Errorf("full S1 attack config = %+v, want the paper's defaults %+v", got, want)
	}
	if want := (kvm.VMConfig{MemSize: 13 * memdef.GiB, VFIOGroups: 1, BootSplits: 500}); full.VM != want {
		t.Errorf("full S1 VM = %+v, want %+v", full.VM, want)
	}
}

// TestShortS1 pins the short S1 machine to what the end-to-end demo's
// -short mode has always run: its geometry (name included, which the
// committed baselines and the run artifact's config hash carry), fault
// model, boot noise, tenant VM and attacker budget.
func TestShortS1(t *testing.T) {
	const seed = 4
	sp := scenario.Get(scenario.S1, scenario.Short)

	host := hyperhammer.S1(seed)
	host.Geometry = dram.MustGeometry(dram.Geometry{
		Name:      "short-4G (i3-10100 bank function)",
		Size:      4 * memdef.GiB,
		BankMasks: hyperhammer.S1BankFunction(),
		RowShift:  18,
		RowBits:   14,
	})
	host.Fault = dram.FaultModelConfig{
		Seed: seed, CellsPerRow: 0.02,
		ThresholdMin: 120_000, ThresholdMax: 400_000,
		StableFraction: 0.54, FlakyP: 0.35,
		NeighborWeight1: 1.0, NeighborWeight2: 0.25,
	}
	host.BootNoisePages = 2000
	if got := sp.HostConfig(seed); !reflect.DeepEqual(got, host) {
		t.Errorf("short S1 host = %+v, want %+v", got, host)
	}

	if want := (kvm.VMConfig{MemSize: 3584 * memdef.MiB, VFIOGroups: 1, BootSplits: 150}); sp.VM != want {
		t.Errorf("short S1 VM = %+v, want %+v", sp.VM, want)
	}

	atk := hyperhammer.DefaultAttackConfig(hyperhammer.S1BankFunction())
	atk.HostMemBits = 32
	atk.IOVAMappings = 6000
	atk.TargetBits = 3
	if got := sp.AttackConfig(); !reflect.DeepEqual(got, atk) {
		t.Errorf("short S1 attack config = %+v, want %+v", got, atk)
	}
	if sp.Backend.Load != nil {
		t.Errorf("short S1 has a background load: %+v", *sp.Backend.Load)
	}
}

// TestShortSystems pins what short scale changes per system: S2's
// sparser-stable fault model and S3's extra noise and scaled-down
// OpenStack load on the S1 hardware.
func TestShortSystems(t *testing.T) {
	s1 := scenario.Get(scenario.S1, scenario.Short)
	s2 := scenario.Get(scenario.S2, scenario.Short)
	s3 := scenario.Get(scenario.S3, scenario.Short)

	if !reflect.DeepEqual(s2.Backend.Geometry.BankMasks, hyperhammer.S2BankFunction()) {
		t.Errorf("short S2 bank masks = %#x, want the Xeon's", s2.Backend.Geometry.BankMasks)
	}
	if f := s2.Backend.Fault; f.CellsPerRow != 0.05 || f.StableFraction != 0.1 {
		t.Errorf("short S2 fault = %+v, want 0.05 cells/row, 0.1 stable", f)
	}
	if s2.Backend.BootNoisePages != 2000 {
		t.Errorf("short S2 noise = %d, want 2000", s2.Backend.BootNoisePages)
	}

	if !reflect.DeepEqual(s3.Backend.Geometry, s1.Backend.Geometry) || s3.Backend.Fault != s1.Backend.Fault {
		t.Error("short S3 hardware differs from short S1's")
	}
	if s3.Backend.BootNoisePages != 3000 {
		t.Errorf("short S3 noise = %d, want 3000", s3.Backend.BootNoisePages)
	}
	want := hostload.OpenStack()
	want.ExtraNoisePages, want.ChurnHeld, want.ChurnPerTick = 6000, 512, 32
	if s3.Backend.Load == nil || *s3.Backend.Load != want {
		t.Errorf("short S3 load = %v, want %+v", s3.Backend.Load, want)
	}

	q := s1.VM.MemSize / 4
	grid := []scenario.Cell{{q, 24}, {2 * q, 24}, {2 * q, 16}, {2 * q, 8}, {2 * q, 4}}
	full := []scenario.Cell{
		{5 * memdef.GiB, 100}, {10 * memdef.GiB, 100}, {10 * memdef.GiB, 70},
		{10 * memdef.GiB, 30}, {10 * memdef.GiB, 20},
	}
	for _, sys := range systems {
		if got := scenario.Get(sys, scenario.Short).Attacker.Table2; !reflect.DeepEqual(got, grid) {
			t.Errorf("short %s Table 2 grid = %v, want %v", sys, got, grid)
		}
		if got := scenario.Get(sys, scenario.Full).Attacker.Table2; !reflect.DeepEqual(got, full) {
			t.Errorf("full %s Table 2 grid = %v, want %v", sys, got, full)
		}
	}
}

// TestGeometriesValid rebuilds every spec's geometry from its public
// description through dram.NewGeometry, and checks the derived host
// address width and attacker bank function against it.
func TestGeometriesValid(t *testing.T) {
	for _, sc := range scales {
		for _, sys := range systems {
			sp := scenario.Get(sys, sc)
			g := sp.Backend.Geometry
			rebuilt, err := dram.NewGeometry(dram.Geometry{
				Name: g.Name, Size: g.Size, BankMasks: g.BankMasks,
				RowShift: g.RowShift, RowBits: g.RowBits,
			})
			if err != nil {
				t.Errorf("%s %s: %v", sys, sc, err)
				continue
			}
			if !reflect.DeepEqual(rebuilt, g) {
				t.Errorf("%s %s: geometry differs from its rebuilt self", sys, sc)
			}
			bits := sp.HostMemBits()
			if uint64(1)<<bits != g.Size {
				t.Errorf("%s %s: HostMemBits %d is not log2 of %#x", sys, sc, bits, g.Size)
			}
			if want := map[scenario.Scale]uint{scenario.Full: 34, scenario.Short: 32}[sc]; bits != want {
				t.Errorf("%s %s: HostMemBits = %d, want %d", sys, sc, bits, want)
			}
			atk := sp.AttackConfig()
			if atk.HostMemBits != bits || !reflect.DeepEqual(atk.BankMasks, g.BankMasks) {
				t.Errorf("%s %s: attack config %d bits / masks %#x, want %d / %#x",
					sys, sc, atk.HostMemBits, atk.BankMasks, bits, g.BankMasks)
			}
			if err := atk.Validate(); err != nil {
				t.Errorf("%s %s: %v", sys, sc, err)
			}
		}
	}
}

// TestGetReturnsFreshValues checks that a caller changing its spec
// (the mechanism studies change one field each) cannot leak into the
// next caller's.
func TestGetReturnsFreshValues(t *testing.T) {
	for _, sc := range scales {
		for _, sys := range systems {
			sp := scenario.Get(sys, sc)
			sp.Backend.Geometry.Name = "changed"
			sp.Backend.Geometry.BankMasks[0] = 0
			sp.Attacker.Table2[0].Blocks = 1
			if sp.Backend.Load != nil {
				sp.Backend.Load.ChurnHeld = 1
			}
			again := scenario.Get(sys, sc)
			if again.Backend.Geometry.Name == "changed" || again.Backend.Geometry.BankMasks[0] == 0 ||
				again.Attacker.Table2[0].Blocks == 1 || (again.Backend.Load != nil && again.Backend.Load.ChurnHeld == 1) {
				t.Errorf("%s %s: Get handed out shared state", sys, sc)
			}
		}
	}
}
