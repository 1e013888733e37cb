package rememberr_test

import (
	"fmt"

	rememberr "repro"
)

// ExampleBuild shows the end-to-end database construction and the
// headline corpus statistics.
func ExampleBuild() {
	db, _, err := rememberr.Build()
	if err != nil {
		panic(err)
	}
	st := db.Stats()
	fmt.Printf("errata: %d (%d unique) across %d documents\n",
		st.Total, st.Unique, st.Documents)
	fmt.Printf("Intel: %d/%d, AMD: %d/%d\n",
		st.IntelTotal, st.IntelUnique, st.AMDTotal, st.AMDUnique)
	// Output:
	// errata: 2563 (1128 unique) across 28 documents
	// Intel: 2057/743, AMD: 506/385
}

// ExampleDatabase_Query demonstrates the fluent query API: how many
// unique bugs require a power-state transition together with at least
// one more trigger, and are reachable from a virtual machine guest?
func ExampleDatabase_Query() {
	db, _, err := rememberr.Build()
	if err != nil {
		panic(err)
	}
	n := db.Query().
		WithCategory("Trg_POW_pwc").
		MinTriggers(2).
		WithCategory("Ctx_PRV_vmg").
		Count()
	fmt.Println(n > 0)
	// Output:
	// true
}

// ExampleExperiments_ByID regenerates one figure and reports whether
// its shape checks against the paper hold.
func ExampleExperiments_ByID() {
	db, _, err := rememberr.Build()
	if err != nil {
		panic(err)
	}
	ex, err := rememberr.NewExperiments(db).ByID("figure-11")
	if err != nil {
		panic(err)
	}
	fmt.Println(ex.Title)
	fmt.Println("checks pass:", ex.Passed())
	// Output:
	// Number of errata by the number of triggers
	// checks pass: true
}
