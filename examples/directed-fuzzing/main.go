// Directed fuzzing case study: does RemembERR-derived knowledge
// actually make a dynamic testing campaign better? (Section VI.)
//
// A simulated design under test hides bugs sampled from the database's
// own annotated errata. Two campaigns compete with identical budgets
// (same number of tests, same per-test trigger budget, same observation
// budget): uniform constrained-random verification, and a strategy
// seeded with PlanCampaign directives — the empirically interacting
// trigger sets, the contexts they need and the cheapest observation
// points. The directed campaign detects a multiple of the baseline's
// bugs, because it (a) pins conjunctive trigger sets that random
// sampling almost never assembles, and (b) looks where the effects
// actually show.
package main

import (
	"fmt"
	"log"

	rememberr "repro"
)

func main() {
	db, _, err := rememberr.Build()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== directed vs random campaign, default budgets ===")
	res, err := db.SimulateDirectedCampaign(rememberr.DefaultCaseStudyOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rememberr.RenderCaseStudy(res))

	// Sweep the test budget: the directed advantage is largest when
	// budgets are tight.
	fmt.Println("\n=== budget sweep ===")
	fmt.Printf("%8s  %8s  %8s  %7s\n", "tests", "directed", "random", "ratio")
	for _, tests := range []int{250, 1000, 4000, 16000} {
		opts := rememberr.DefaultCaseStudyOptions()
		opts.Tests = tests
		r, err := db.SimulateDirectedCampaign(opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d  %8d  %8d  %6.2fx\n",
			tests, r.Directed.Detected, r.Random.Detected, r.Speedup)
	}

	// Observation budget matters too: with only two observation points,
	// knowing *where to look* dominates.
	fmt.Println("\n=== observation-budget sweep (2000 tests) ===")
	fmt.Printf("%8s  %8s  %8s  %7s\n", "monitors", "directed", "random", "ratio")
	for _, budget := range []int{1, 2, 4, 8} {
		opts := rememberr.DefaultCaseStudyOptions()
		opts.ObservationBudget = budget
		r, err := db.SimulateDirectedCampaign(opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d  %8d  %8d  %6.2fx\n",
			budget, r.Directed.Detected, r.Random.Detected, r.Speedup)
	}
}
