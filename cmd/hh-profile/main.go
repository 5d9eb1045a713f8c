// Command hh-profile runs the memory-profiling step (Section 4.1, the
// Table 1 workload) on one simulated system and prints the findings.
//
// Usage:
//
//	hh-profile              # S1, full 16 GiB scale
//	hh-profile -system S2
//	hh-profile -stop 12     # stop at 12 attack-usable bits (Section 5.3.3)
package main

import (
	"flag"
	"fmt"
	"os"

	"hyperhammer"
)

func main() {
	system := flag.String("system", "S1", "S1 or S2")
	seed := flag.Uint64("seed", 1, "simulation seed")
	stop := flag.Int("stop", 0, "stop after this many attack-usable bits (0 = full profile)")
	verbose := flag.Bool("v", false, "print each vulnerable bit")
	flag.Parse()

	var sp hyperhammer.Scenario
	for _, sys := range []hyperhammer.System{hyperhammer.SystemS1, hyperhammer.SystemS2} {
		if sys.String() == *system {
			sp = hyperhammer.GetScenario(sys, hyperhammer.FullScale)
		}
	}
	if sp.Backend.Geometry == nil {
		fmt.Fprintln(os.Stderr, "hh-profile: -system must be S1 or S2")
		os.Exit(2)
	}

	host, err := hyperhammer.NewHost(sp.HostConfig(*seed))
	if err != nil {
		fatal(err)
	}
	vm, err := host.CreateVM(sp.VM)
	if err != nil {
		fatal(err)
	}
	gos := hyperhammer.BootGuest(vm)

	cfg := sp.AttackConfig()
	cfg.ProfileHugepages = int(sp.Attacker.ProfileSize / hyperhammer.HugePageSize)
	cfg.StopAfterExploitable = *stop
	prof, err := hyperhammer.Profile(gos, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("system %s: profiled %d hugepages in %v simulated (%d hammer ops)\n",
		*system, prof.Buffer.Hugepages, prof.Duration, prof.HammerOps)
	fmt.Printf("flips: total=%d 1->0=%d 0->1=%d stable=%d exploitable=%d attack-usable=%d\n",
		prof.Total, prof.OneToZero, prof.ZeroToOne, prof.Stable, prof.Exploitable, prof.AttackUsable)
	if *verbose {
		for i, b := range prof.Bits {
			fmt.Printf("  bit %3d: gva=%#x bit=%d epte-bit=%2d dir=%v stable=%v usable=%v\n",
				i, b.Flip.GVA, b.Flip.Bit, b.Flip.EPTEBit(), b.Flip.Direction, b.Stable, b.Exploitable)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hh-profile:", err)
	os.Exit(1)
}
