// Command hh-steer demonstrates Page Steering (Section 4.2, the
// Table 2 / Figure 3 workload): exhaust the host's noise pages through
// vIOMMU, voluntarily release blocks through the modified virtio-mem
// driver, spray EPT pages, and report how many released pages the
// hypervisor reused for EPTs.
//
// Usage:
//
//	hh-steer                 # 16 GiB S1, B=20 blocks, 10 GiB spray
//	hh-steer -blocks 100 -spray 5
//
// It exits 0 after reporting, 1 when the simulation fails and 2 on a
// usage error, including a B the tenant's hugepages cannot hold.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"hyperhammer"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hh-steer", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "simulation seed")
	blocks := fs.Int("blocks", 20, "page blocks to release (the paper's B, at least 1)")
	sprayGiB := fs.Int("spray", 10, "EPT-creation buffer in GiB (the paper's S)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *blocks < 1 || *sprayGiB < 0 {
		fmt.Fprintf(stderr, "hh-steer: need -blocks >= 1 and -spray >= 0, got %d and %d\n", *blocks, *sprayGiB)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "hh-steer:", err)
		return 1
	}

	s1 := hyperhammer.GetScenario(hyperhammer.SystemS1, hyperhammer.FullScale)
	host, err := hyperhammer.NewHost(s1.HostConfig(*seed))
	if err != nil {
		return fail(err)
	}
	vm, err := host.CreateVM(s1.VM)
	if err != nil {
		return fail(err)
	}
	gos := hyperhammer.BootGuest(vm)
	gos.InstallAttackDriver()

	n := gos.FreeHugepages()
	base, err := gos.AllocHuge(n)
	if err != nil {
		return fail(err)
	}
	// Releases are spread (n-1)/B hugepages apart, skipping the DMA
	// target at index 0; that stride is zero once B reaches n.
	if *blocks >= n {
		fmt.Fprintf(stderr, "hh-steer: -blocks %d needs fewer blocks than the tenant's %d hugepages\n", *blocks, n)
		return 2
	}
	fmt.Fprintf(stdout, "noise pages before exhaustion: %d\n", host.NoisePages())

	// Step 1: exhaustion.
	maps := s1.Attacker.IOVAMappings
	iova := hyperhammer.IOVA(0x1_0000_0000)
	for m := 0; m < maps; m++ {
		if err := gos.MapDMA(0, iova, base); err != nil {
			return fail(err)
		}
		iova += hyperhammer.HugePageSize
	}
	fmt.Fprintf(stdout, "noise pages after %s vIOMMU mappings: %d\n", thousands(maps), host.NoisePages())

	// Step 2: voluntary releases.
	stride := (n - 1) / *blocks
	released := 0
	for i := 1; i < n && released < *blocks; i += stride {
		if err := gos.ReleaseHugepage(base + hyperhammer.GVA(i)*hyperhammer.HugePageSize); err != nil {
			return fail(err)
		}
		released++
	}
	fmt.Fprintf(stdout, "released %d blocks (%d pages) via voluntary virtio-mem unplug\n",
		released, released*512)

	// Step 3: EPTE spray.
	want := *sprayGiB * hyperhammer.GiB / hyperhammer.HugePageSize
	sprayed := 0
	for i := 0; i < n && sprayed < want; i++ {
		gva := base + hyperhammer.GVA(i)*hyperhammer.HugePageSize
		if _, err := gos.GPAOf(gva); err != nil {
			continue // released
		}
		if _, err := gos.Exec(gva); err != nil {
			return fail(err)
		}
		sprayed++
	}
	fmt.Fprintf(stdout, "sprayed %d hugepage executions (multihit splits: %d)\n", sprayed, vm.Splits())

	stats := vm.EPTReuse()
	fmt.Fprintf(stdout, "\nEPT reuse: N=%d E=%d R=%d R_N=%.1f%% R_E=%.1f%%\n",
		stats.ReleasedPages, stats.EPTPages, stats.ReusedPages,
		100*stats.RN(), 100*stats.RE())
	return 0
}

// thousands formats n with comma separators, as the paper writes its
// mapping counts (60,000).
func thousands(n int) string {
	s := strconv.Itoa(n)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}
