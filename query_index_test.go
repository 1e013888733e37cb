package rememberr

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/index"
)

// from2010 and to2016 bound the disclosure-window filter.
var (
	from2010 = time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	to2016   = time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
)

// queryFilters is the filter vocabulary for the equivalence matrix,
// each filter written once against the Query scan and once against the
// inverted index that backs the HTTP layer. Every Query method appears
// at least once, with operands that hit the synthetic corpus.
var queryFilters = []struct {
	name  string
	apply func(*Query) *Query
	index func(*index.Query)
}{
	{"vendor-intel", func(q *Query) *Query { return q.Vendor(Intel) },
		func(iq *index.Query) { iq.Vendor(Intel) }},
	{"vendor-amd", func(q *Query) *Query { return q.Vendor(AMD) },
		func(iq *index.Query) { iq.Vendor(AMD) }},
	{"doc-intel-06", func(q *Query) *Query { return q.InDocument("intel-06") },
		func(iq *index.Query) { iq.InDocument("intel-06") }},
	{"cat-pow-pwc", func(q *Query) *Query { return q.WithCategory("Trg_POW_pwc") },
		func(iq *index.Query) { iq.WithCategory("Trg_POW_pwc") }},
	{"cat-hng", func(q *Query) *Query { return q.WithCategory("Eff_HNG_hng") },
		func(iq *index.Query) { iq.WithCategory("Eff_HNG_hng") }},
	{"cat-unknown", func(q *Query) *Query { return q.WithCategory("Trg_XXX_xxx") },
		func(iq *index.Query) { iq.WithCategory("Trg_XXX_xxx") }},
	{"any-hng-crh", func(q *Query) *Query { return q.AnyCategory("Eff_HNG_hng", "Eff_HNG_crh") },
		func(iq *index.Query) { iq.AnyCategory("Eff_HNG_hng", "Eff_HNG_crh") }},
	{"class-trg-pow", func(q *Query) *Query { return q.WithClass("Trg_POW") },
		func(iq *index.Query) { iq.WithClass("Trg_POW") }},
	{"class-eff-hng", func(q *Query) *Query { return q.WithClass("Eff_HNG") },
		func(iq *index.Query) { iq.WithClass("Eff_HNG") }},
	{"all-triggers", func(q *Query) *Query { return q.WithAllTriggers("Trg_POW_pwc", "Trg_MOP_fen") },
		func(iq *index.Query) { iq.WithAllTriggers("Trg_POW_pwc", "Trg_MOP_fen") }},
	{"min-triggers-2", func(q *Query) *Query { return q.MinTriggers(2) },
		func(iq *index.Query) { iq.MinTriggers(2) }},
	{"workaround-bios", func(q *Query) *Query { return q.Workaround(WorkaroundCategory(1)) },
		func(iq *index.Query) { iq.Workaround(WorkaroundCategory(1)) }},
	{"fix-none", func(q *Query) *Query { return q.Fix(FixStatus(0)) },
		func(iq *index.Query) { iq.Fix(FixStatus(0)) }},
	{"complex", func(q *Query) *Query { return q.Complex() },
		func(iq *index.Query) { iq.Complex() }},
	{"sim-only", func(q *Query) *Query { return q.SimulationOnly() },
		func(iq *index.Query) { iq.SimulationOnly() }},
	{"disclosed-2010s", func(q *Query) *Query { return q.DisclosedBetween(from2010, to2016) },
		func(iq *index.Query) { iq.DisclosedBetween(from2010, to2016) }},
	{"title-the", func(q *Query) *Query { return q.TitleContains("the") },
		func(iq *index.Query) { iq.TitleContains("the") }},
	{"msr-mcx", func(q *Query) *Query { return q.ObservableIn("MCx_STATUS") },
		func(iq *index.Query) { iq.ObservableIn("MCx_STATUS") }},
}

func sameErrata(a, b []*Erratum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkEquivalence runs one filter combination through the Query scan
// and through the index and requires identical result slices (same
// pointers, same order).
func checkEquivalence(t *testing.T, db *Database, ix *index.Index, label string, combo []int) {
	t.Helper()
	q, iq := db.Query(), ix.Query()
	name := label
	for _, fi := range combo {
		q = queryFilters[fi].apply(q)
		queryFilters[fi].index(iq)
		name += "+" + queryFilters[fi].name
	}
	if got, want := iq.All(), q.All(); !sameErrata(got, want) {
		t.Errorf("%s: All() indexed %d != scan %d", name, len(got), len(want))
	}
	if got, want := iq.Unique(), q.Unique(); !sameErrata(got, want) {
		t.Errorf("%s: Unique() indexed %d != scan %d", name, len(got), len(want))
	}
}

// TestQueryIndexClosureEquivalence pins the inverted index that answers
// /v1/errata to the Query scan: both return identical errata sets (and
// orderings) for a generated matrix of filter combinations — every
// single filter, every pair, and a sample of triples — across six
// corpus seeds plus the fully built default database (the only one
// carrying disclosure dates).
func TestQueryIndexClosureEquivalence(t *testing.T) {
	dbs := map[string]*Database{"built-seed1": FromCore(testDB(t).Core())}
	for seed := int64(1); seed <= 6; seed++ {
		gt, err := corpus.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		dbs[fmt.Sprintf("corpus-seed%d", seed)] = FromCore(gt.DB)
	}
	for label, db := range dbs {
		ix := index.Build(db.Core())
		for i := range queryFilters {
			checkEquivalence(t, db, ix, label, []int{i})
		}
		for i := range queryFilters {
			for j := i + 1; j < len(queryFilters); j++ {
				checkEquivalence(t, db, ix, label, []int{i, j})
			}
		}
		// Triples: a rolling sample rather than the full cube.
		for i := range queryFilters {
			j := (i + 5) % len(queryFilters)
			k := (i + 11) % len(queryFilters)
			if i != j && j != k && i != k {
				checkEquivalence(t, db, ix, label, []int{i, j, k})
			}
		}
	}
}

// TestQueryIndexedPinnedCounts re-pins the headline query counts from
// rememberr_test on the index, so semantic drift between the engines
// cannot hide behind the equivalence harness.
func TestQueryIndexedPinnedCounts(t *testing.T) {
	db := testDB(t)
	ix := index.Build(db.Core())
	if got := ix.Query().Count(); got != db.Stats().Unique {
		t.Errorf("unfiltered indexed Count = %d, want %d", got, db.Stats().Unique)
	}
	if got := len(ix.Query().Vendor(Intel).All()); got != 2057 {
		t.Errorf("indexed Vendor(Intel).All() = %d, want 2057", got)
	}
	if got := ix.Query().SimulationOnly().Vendor(AMD).Count(); got != 5 {
		t.Errorf("indexed SimulationOnly+AMD = %d, want 5", got)
	}
	if got := ix.Query().SimulationOnly().Vendor(Intel).Count(); got != 1 {
		t.Errorf("indexed SimulationOnly+Intel = %d, want 1", got)
	}
	if ix.Query().InDocument("intel-12").Vendor(AMD).Count() != 0 {
		t.Error("indexed contradictory filters matched")
	}
}

// TestQueryReuseContract pins the documented reuse semantics: queries
// are immutable, terminal operations are repeatable, and branching a
// base query never leaks filters between branches — the guard against
// a Query reused after Unique() accumulating stale filters.
func TestQueryReuseContract(t *testing.T) {
	db := testDB(t)

	base := db.Query().Vendor(Intel)
	before := base.Count()

	// Terminal ops are repeatable and side-effect free.
	if again := base.Count(); again != before {
		t.Fatalf("repeated Count differs: %d then %d", before, again)
	}
	u1 := base.Unique()
	u2 := base.Unique()
	if !sameErrata(u1, u2) {
		t.Fatal("repeated Unique() returned different results")
	}

	// Branching after a terminal op must not mutate the base: the two
	// derived queries see exactly one extra filter each, and the base
	// keeps its original result set.
	hangs := base.WithCategory("Eff_HNG_hng")
	crashes := base.WithCategory("Eff_HNG_crh")
	if len(base.filters) != 1 {
		t.Fatalf("base accumulated %d filters, want 1", len(base.filters))
	}
	if len(hangs.filters) != 2 || len(crashes.filters) != 2 {
		t.Fatalf("branches have %d/%d filters, want 2/2", len(hangs.filters), len(crashes.filters))
	}
	if got := base.Count(); got != before {
		t.Fatalf("base Count changed after branching: %d, want %d", got, before)
	}
	if hangs.Count() >= before || crashes.Count() >= before {
		t.Fatal("branch filters did not apply")
	}

	// Filters added after a terminal op compose on the derived query
	// only (one-shot building is not required).
	narrowed := hangs.MinTriggers(2)
	if narrowed.Count() > hangs.Count() {
		t.Fatal("narrowing increased the result set")
	}
	if len(hangs.filters) != 2 {
		t.Fatal("narrowing mutated its receiver")
	}

}
