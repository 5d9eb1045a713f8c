// Command hh-dramdig reverse engineers the DRAM bank address function
// of the simulated machines from row-buffer-conflict timing, the
// DRAMDig step of Section 5.1, and checks the THP-compatibility
// property the attack depends on.
//
// Usage:
//
//	hh-dramdig              # both machines
//	hh-dramdig -system S2
package main

import (
	"flag"
	"fmt"
	"os"

	"hyperhammer"
)

func main() {
	system := flag.String("system", "", "S1, S2, or empty for both")
	seed := flag.Uint64("seed", 1, "simulation seed")
	flag.Parse()

	ran := false
	for _, sys := range []hyperhammer.System{hyperhammer.SystemS1, hyperhammer.SystemS2} {
		if *system != "" && *system != sys.String() {
			continue
		}
		ran = true
		geo := hyperhammer.GetScenario(sys, hyperhammer.FullScale).Backend.Geometry
		res, err := hyperhammer.RecoverBankFunction(geo, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hh-dramdig: %s: %v\n", sys, err)
			os.Exit(1)
		}
		fmt.Printf("%s (%s):\n", sys, geo.Name)
		fmt.Printf("  %d banks from %d XOR masks (%d timing probes)\n",
			res.Banks, len(res.Masks), res.ProbeCount)
		for _, m := range res.Masks {
			fmt.Printf("  mask %#07x (bits", m)
			for b := 0; b < 64; b++ {
				if m&(1<<b) != 0 {
					fmt.Printf(" %d", b)
				}
			}
			fmt.Println(")")
		}
		fmt.Printf("  all bits below 22 (THP-compatible): %v\n\n", res.AllBitsBelow(22))
	}
	if !ran {
		fmt.Fprintln(os.Stderr, "hh-dramdig: -system must be S1 or S2")
		os.Exit(2)
	}
}
