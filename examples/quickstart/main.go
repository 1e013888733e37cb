// Quickstart: build the RemembERR database end to end, print the corpus
// statistics, the most frequent triggers, and one erratum in both the
// classic and the proposed machine-readable format.
package main

import (
	"fmt"
	"log"

	rememberr "repro"
	"repro/internal/core"
)

func main() {
	// Build runs the whole pipeline: corpus acquisition, parsing,
	// deduplication, classification with simulated four-eyes
	// annotation, and disclosure-date inference. With no options it
	// builds the paper's configuration at seed 1; the same seed
	// reproduces the database bit for bit.
	db, rep, err := rememberr.Build()
	if err != nil {
		log.Fatal(err)
	}

	st := db.Stats()
	fmt.Printf("RemembERR database built:\n")
	fmt.Printf("  %d errata across %d documents; %d unique after deduplication\n",
		st.Total, st.Documents, st.Unique)
	fmt.Printf("  Intel: %d entries, %d unique; AMD: %d entries, %d unique\n",
		st.IntelTotal, st.IntelUnique, st.AMDTotal, st.AMDUnique)
	fmt.Printf("  parser diagnostics (errata in errata): %d\n", len(rep.Diagnostics))
	fmt.Printf("  manually confirmed duplicate pairs: %d\n\n", rep.Dedup.ConfirmedPairs)

	// The paper's key insight: triggers are conjunctive, observations
	// disjunctive. Count the errata needing at least two triggers.
	multi := db.Query().MinTriggers(2).Count()
	classified := db.Query().MinTriggers(1).Count()
	fmt.Printf("%d of %d classified errata (%.0f%%) need at least two combined triggers\n\n",
		multi, classified, 100*float64(multi)/float64(classified))

	// Run one of the paper's experiments directly.
	fig10 := rememberr.NewExperiments(db).Figure10()
	fmt.Println(fig10.Text)

	// Show an erratum in both formats.
	var target *rememberr.Erratum
	for _, e := range db.Unique() {
		if len(e.Ann.Triggers) >= 2 && len(e.Ann.Contexts) >= 1 {
			target = e
			break
		}
	}
	fmt.Println("--- classic format ---")
	fmt.Printf("ID: %s\nTitle: %s\nDescription: %s\nWorkaround: %s\nStatus: %s\n\n",
		target.ID, target.Title, target.Description, target.Workaround, target.Status)
	fmt.Println("--- proposed format (Table VII) ---")
	fmt.Print(core.Structure(target).Render())
}
