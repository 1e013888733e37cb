package rememberr

import (
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	buildOnce sync.Once
	builtDB   *Database
	builtErr  error
)

// testDB builds the database once for all facade tests.
func testDB(t testing.TB) *Database {
	t.Helper()
	buildOnce.Do(func() {
		builtDB, _, builtErr = Build()
	})
	if builtErr != nil {
		t.Fatal(builtErr)
	}
	return builtDB
}

func TestBuildStats(t *testing.T) {
	db := testDB(t)
	st := db.Stats()
	if st.Total != 2563 || st.IntelTotal != 2057 || st.AMDTotal != 506 {
		t.Errorf("totals = %+v", st)
	}
	if st.Unique != 1128 || st.IntelUnique != 743 || st.AMDUnique != 385 {
		t.Errorf("uniques = %+v", st)
	}
	if st.Documents != 28 {
		t.Errorf("documents = %d", st.Documents)
	}
	if st.Unclassified != 0 {
		t.Errorf("unclassified unique errata = %d, want 0", st.Unclassified)
	}
}

func TestBuildReport(t *testing.T) {
	db := testDB(t)
	rep := db.Report()
	if rep == nil {
		t.Fatal("no build report")
	}
	if rep.Dedup.ConfirmedPairs != 29 {
		t.Errorf("confirmed pairs = %d, want 29", rep.Dedup.ConfirmedPairs)
	}
	if len(rep.Annotation.Steps) != 7 {
		t.Errorf("annotation steps = %d", len(rep.Annotation.Steps))
	}
	if len(rep.Diagnostics) < 20 {
		t.Errorf("diagnostics = %d, expected the injected document errors to surface", len(rep.Diagnostics))
	}
	if rep.Timeline.Dated == 0 || rep.Timeline.Interpolated == 0 {
		t.Errorf("timeline stats = %+v", rep.Timeline)
	}
}

func TestAllExperimentsPass(t *testing.T) {
	db := testDB(t)
	for _, ex := range NewExperiments(db).All() {
		if ex.Text == "" && len(ex.Checks) > 0 && ex.Checks[0].Pass {
			t.Errorf("%s: empty rendering", ex.ID)
		}
		for _, c := range ex.Checks {
			if !c.Pass {
				t.Errorf("%s: check %q failed: %s", ex.ID, c.Name, c.Detail)
			}
		}
	}
}

func TestExperimentLookup(t *testing.T) {
	db := testDB(t)
	x := NewExperiments(db)
	ids := x.IDs()
	if len(ids) != 24 {
		t.Errorf("experiments = %d, want 24", len(ids))
	}
	ex, err := x.ByID("figure-10")
	if err != nil || ex.ID != "figure-10" {
		t.Errorf("ByID: %v", err)
	}
	if _, err := x.ByID("figure-99"); err == nil {
		t.Error("ByID accepted unknown id")
	}
}

func TestObservationsHold(t *testing.T) {
	db := testDB(t)
	obs := db.Observations()
	if len(obs) != 13 {
		t.Fatalf("observations = %d, want 13", len(obs))
	}
	for _, o := range obs {
		if !o.Holds {
			t.Errorf("%s does not hold: %s (%s)", o.ID, o.Statement, o.Evidence)
		}
	}
}

func TestQuery(t *testing.T) {
	db := testDB(t)
	all := db.Query().Count()
	if all != 1128 {
		t.Errorf("unfiltered count = %d", all)
	}
	intel := db.Query().Vendor(Intel).Count()
	if intel != 743 {
		t.Errorf("intel count = %d", intel)
	}
	hangs := db.Query().WithCategory("Eff_HNG_hng").Count()
	if hangs == 0 || hangs >= all {
		t.Errorf("hang count = %d", hangs)
	}
	multi := db.Query().MinTriggers(2).Count()
	single := db.Query().MinTriggers(1).Count()
	if multi == 0 || multi >= single {
		t.Errorf("multi=%d single=%d", multi, single)
	}
	powerHangs := db.Query().WithClass("Trg_POW").WithCategory("Eff_HNG_hng").Count()
	if powerHangs > hangs {
		t.Error("conjunctive filter grew the result")
	}
	none := db.Query().Workaround(WorkaroundCategory(0)).Count()
	if none == 0 {
		t.Error("no None-workaround errata")
	}
	if db.Query().InDocument("intel-12").Vendor(AMD).Count() != 0 {
		t.Error("contradictory filters matched")
	}
	from := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	to := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	window := db.Query().DisclosedBetween(from, to).Count()
	if window == 0 || window >= all {
		t.Errorf("window count = %d", window)
	}
	mcx := db.Query().ObservableIn("MCx_STATUS").Count()
	if mcx == 0 {
		t.Error("no MCx_STATUS errata")
	}
	if len(db.Query().Vendor(AMD).Keys()) != 385 {
		t.Error("keys count wrong")
	}
	if got := len(db.Query().Vendor(Intel).All()); got != 2057 {
		t.Errorf("All() = %d", got)
	}
	if db.Query().TitleContains("zzz-no-such-title").Count() != 0 {
		t.Error("bogus title matched")
	}
	if db.Query().Complex().Count() == 0 {
		t.Error("no complex-condition errata")
	}
	// AnyCategory is disjunctive: at least as many matches as each part.
	hangsOrCrashes := db.Query().AnyCategory("Eff_HNG_hng", "Eff_HNG_crh").Count()
	crashes := db.Query().WithCategory("Eff_HNG_crh").Count()
	if hangsOrCrashes < hangs || hangsOrCrashes < crashes || hangsOrCrashes > hangs+crashes {
		t.Errorf("AnyCategory = %d (hangs %d, crashes %d)", hangsOrCrashes, hangs, crashes)
	}
	// The paper: only five AMD and one Intel erratum are simulation-only.
	if got := db.Query().SimulationOnly().Vendor(AMD).Count(); got != 5 {
		t.Errorf("AMD simulation-only = %d, want 5", got)
	}
	if got := db.Query().SimulationOnly().Vendor(Intel).Count(); got != 1 {
		t.Errorf("Intel simulation-only = %d, want 1", got)
	}
}

func TestPlanCampaign(t *testing.T) {
	db := testDB(t)
	plan := db.PlanCampaign(DefaultCampaignOptions())
	if len(plan) == 0 {
		t.Fatal("empty campaign plan")
	}
	if len(plan) > 10 {
		t.Errorf("plan too long: %d", len(plan))
	}
	for i, d := range plan {
		if d.Rank != i+1 {
			t.Errorf("rank %d at position %d", d.Rank, i)
		}
		if len(d.Triggers) != 2 || d.Support < 3 || len(d.Observations) == 0 {
			t.Errorf("directive %d malformed: %+v", i, d)
		}
		if i > 0 && plan[i].Support > plan[i-1].Support {
			t.Error("plan not ordered by support")
		}
	}
	text := RenderPlan(plan)
	if !strings.Contains(text, "apply") || !strings.Contains(text, "observe") {
		t.Errorf("rendered plan:\n%s", text)
	}
	// Focused plan: power-related directives only.
	focused := db.PlanCampaign(CampaignOptions{MaxDirectives: 5, MinSupport: 2, FocusClass: "Trg_POW"})
	for _, d := range focused {
		hasPow := false
		for _, tr := range d.Triggers {
			if strings.HasPrefix(tr, "Trg_POW") {
				hasPow = true
			}
		}
		if !hasPow {
			t.Errorf("focused directive without POW trigger: %v", d.Triggers)
		}
	}
	// Vendor-focused plan.
	v := AMD
	amdPlan := db.PlanCampaign(CampaignOptions{MaxDirectives: 5, MinSupport: 1, FocusVendor: &v})
	if len(amdPlan) == 0 {
		t.Error("empty AMD plan")
	}
}

func TestBuildDeterminism(t *testing.T) {
	db1 := testDB(t)
	db2, _, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := db1.Errata(), db2.Errata()
	if len(e1) != len(e2) {
		t.Fatal("entry counts differ")
	}
	for i := range e1 {
		if e1[i].FullID() != e2[i].FullID() || e1[i].Key != e2[i].Key ||
			!e1[i].Disclosed.Equal(e2[i].Disclosed) {
			t.Fatalf("entry %d differs across builds", i)
		}
	}
}

func TestBuildOptionVariants(t *testing.T) {
	db, rep, err := Build(WithSeed(42), WithSimilarityMetric("dice"),
		WithAnnotationSteps(5), WithInterpolation(false))
	if err != nil {
		t.Fatal(err)
	}
	if db.Stats().Total != 2563 {
		t.Errorf("total = %d", db.Stats().Total)
	}
	if len(rep.Annotation.Steps) != 5 {
		t.Errorf("steps = %d, want 5", len(rep.Annotation.Steps))
	}
	if rep.Timeline.Interpolated != 0 {
		t.Errorf("interpolation disabled but %d interpolated", rep.Timeline.Interpolated)
	}
}

func TestBaseSchemeAccessor(t *testing.T) {
	if BaseScheme().NumCategories(-1) != 60 {
		t.Error("BaseScheme wrong")
	}
}
