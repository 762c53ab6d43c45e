// Control-plane tour: a day of failures and traffic surges, served
// online. This example builds a network, precomputes a configuration
// library by clustering the scenario space and optimizing one robust
// routing per cluster, then replays the day as a telemetry stream
// through a one-member Fleet: every episode's events re-score all
// configurations incrementally, the controller advises the best one,
// and switches happen through bounded-change migration plans whose
// every intermediate step is loop-free and SLA-checked.
//
// The punchline is the comparison at the bottom: a single static
// routing versus the library under the same day — flexibility (a few
// weight changes at the right moments) buys violations a fixed
// configuration cannot avoid.
//
// This tour drives one network; examples/fleet runs the same loop
// across several networks at once, with durable checkpoints.
//
// Run with: go run ./examples/controlplane
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	net, err := repro.NewNetwork(repro.NetworkSpec{
		Topology:   "rand",
		Nodes:      20,
		Links:      100,
		MaxUtil:    0.78,
		SLABoundMs: 25,
		Seed:       21,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The scenario day: dual-link outages, hot-spot surges, and a few
	// single-link failures.
	day, err := net.MergeScenarios("failure+surge day",
		net.DualLinkFailureScenarios(10, 5),
		net.HotspotSurgeScenarios(true, 5, 6),
		net.SingleLinkFailureScenarios())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("building a 4-configuration library over %d scenarios...\n", day.Size())
	lib, err := net.BuildLibrary(day, repro.LibraryOptions{Size: 4, Budget: "quick", Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("library: %v\n\n", lib.Names())

	// A single network is a one-member fleet; its name is the routing
	// key, and "" addresses the default (here: only) member.
	fleet, err := repro.NewFleet([]repro.FleetMember{{Name: "net", Net: net, Library: lib}}, repro.FleetOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer fleet.Close(context.Background())
	st, err := fleet.State("")
	if err != nil {
		log.Fatal(err)
	}
	static, err := lib.Routing(st.Active) // the best config on the intact network
	if err != nil {
		log.Fatal(err)
	}

	// The static baseline's per-episode violations, scored once offline
	// by the scenario engine.
	staticRep, err := net.RunScenarios(day, static)
	if err != nil {
		log.Fatal(err)
	}

	const maxChanges = 6
	fmt.Printf("replaying the day (migration budget %d weight changes per stage):\n\n", maxChanges)
	fmt.Printf("  %-26s %-8s %10s %10s %8s\n", "episode", "advised", "static", "adaptive", "changes")

	names := day.ScenarioNames()
	staticViol, adaptiveViol, totalChanges := 0, 0, 0
	for i := 0; i < day.Size(); i++ {
		if err := fleet.ReplayEpisode("", day, i, true); err != nil {
			log.Fatal(err)
		}
		adv, err := fleet.Advise("")
		if err != nil {
			log.Fatal(err)
		}
		changes := 0
		if adv.ShouldSwitch {
			// Staged migration: apply bounded plans until complete.
			for {
				plan, err := fleet.Plan("", adv.Config, maxChanges)
				if err != nil {
					log.Fatal(err)
				}
				if err := fleet.Apply("", plan); err != nil {
					log.Fatal(err)
				}
				changes += len(plan.Steps)
				if plan.Complete || len(plan.Steps) == 0 {
					break
				}
			}
		}
		st, err := fleet.State("")
		if err != nil {
			log.Fatal(err)
		}
		staticHere := staticRep.PerScenario[i].SLAViolations
		staticViol += staticHere
		adaptiveViol += st.Deployed.SLAViolations
		totalChanges += changes
		if staticHere != st.Deployed.SLAViolations || changes > 0 {
			fmt.Printf("  %-26s %-8s %10d %10d %8d\n",
				names[i], adv.Name, staticHere, st.Deployed.SLAViolations, changes)
		}
		if err := fleet.ReplayEpisode("", day, i, false); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("\nday total: static %d violations, adaptive %d violations, %d weight changes across %d episodes\n",
		staticViol, adaptiveViol, totalChanges, day.Size())
	fmt.Println()
	fmt.Println("switching among precomputed configurations — through staged migrations whose")
	fmt.Println("every step is bounded, loop-free and SLA-checked — absorbs stress no single")
	fmt.Println("configuration can: the paper's flexibility axis.")
}
