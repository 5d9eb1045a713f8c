// Cloudtenant: the realistic multi-tenant scenario the paper's threat
// model describes (Section 3). A victim tenant's VM holds a database
// credential in its memory; the attacker, another ordinary tenant on
// the same host, runs the full HyperHammer campaign — respawning its
// VM after failed attempts — until it escapes KVM isolation and
// extracts the credential straight out of the victim VM's memory
// through host physical addresses.
//
// Runs on the short-scale S1 machine (a 4 GiB host) so the campaign
// lands in seconds.
package main

import (
	"fmt"
	"log"

	"hyperhammer"
)

func main() {
	cloud := hyperhammer.GetScenario(hyperhammer.SystemS1, hyperhammer.ShortScale)
	host, err := hyperhammer.NewHost(cloud.HostConfig(9))
	if err != nil {
		log.Fatal(err)
	}

	// The victim tenant: a small VM that writes a credential into its
	// own memory. It never interacts with the attacker.
	const victimMem = 256 * hyperhammer.MiB
	victimVM, err := host.CreateVM(hyperhammer.VMConfig{MemSize: victimMem})
	if err != nil {
		log.Fatal(err)
	}
	victim := hyperhammer.BootGuest(victimVM)
	credGVA, err := victim.AllocHuge(1)
	if err != nil {
		log.Fatal(err)
	}
	const credential = 0xDB_5EC2E7_0001
	if err := victim.Write64(credGVA, credential); err != nil {
		log.Fatal(err)
	}
	// Where the credential physically lives — known to the harness
	// for verification, never to the attacker.
	credHPA, err := victim.Hypercall(credGVA)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("victim VM stored its credential (physically at HPA %#x, unknown to the attacker)\n", credHPA)

	// The attacker tenant: the scenario's VM, one VFIO device with
	// vIOMMU, less the memory the victim already holds.
	attackerVM := cloud.VM
	attackerVM.MemSize -= victimMem

	res, err := hyperhammer.RunCampaign(host, hyperhammer.CampaignConfig{
		Attack:             cloud.AttackConfig(),
		VM:                 attackerVM,
		MaxAttempts:        300,
		StopAtFirstSuccess: true,
		VerifyHPA:          credHPA,
		VerifyValue:        credential,
		ChurnOps:           400,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attacker profiled %d exploitable bits in %v simulated\n",
		res.ProfiledBits, res.ProfileDuration)
	if res.Successes == 0 {
		fmt.Printf("no escape within %d attempts; rerun with another seed\n", len(res.Attempts))
		return
	}
	fmt.Printf("attempt %d escaped after %v simulated attack time\n",
		res.FirstSuccessAttempt, res.TimeToFirstSuccess)
	fmt.Printf("attacker read the victim's credential %#x out of another VM's memory: inter-tenant isolation broken\n",
		uint64(credential))
}
