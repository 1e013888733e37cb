package rememberr

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestSeverities(t *testing.T) {
	db := testDB(t)
	breakdowns := db.Severities()
	if len(breakdowns) != 2 {
		t.Fatalf("breakdowns = %d", len(breakdowns))
	}
	for _, b := range breakdowns {
		if b.Total == 0 {
			t.Fatalf("%s: empty breakdown", b.Vendor)
		}
		sum := 0
		for _, n := range b.Counts {
			sum += n
		}
		if sum != b.Total {
			t.Errorf("%s: counts sum %d != total %d", b.Vendor, sum, b.Total)
		}
		// Every annotated erratum has at least one effect, so Unknown
		// must be empty.
		if b.Counts[SeverityUnknown] != 0 {
			t.Errorf("%s: %d ungraded errata", b.Vendor, b.Counts[SeverityUnknown])
		}
		// The paper's conservative stance: most errata are fatal or
		// corrupting.
		if (b.Counts[SeverityFatal]+b.Counts[SeverityCorrupting])*10 < b.Total*7 {
			t.Errorf("%s: fatal+corrupting below 70%%", b.Vendor)
		}
		if b.GuestReachableFatal == 0 || b.GuestReachableFatal > b.Counts[SeverityFatal] {
			t.Errorf("%s: guest-reachable fatal = %d of %d",
				b.Vendor, b.GuestReachableFatal, b.Counts[SeverityFatal])
		}
	}
	top := db.MostCritical(Intel, 5)
	if len(top) != 5 {
		t.Fatalf("top = %d", len(top))
	}
	for _, e := range top {
		if db.Grade(e) != SeverityFatal {
			t.Errorf("top-5 erratum %s graded %v", e.Key, db.Grade(e))
		}
	}
}

func TestRediscoveries(t *testing.T) {
	db := testDB(t)
	stats := db.Rediscoveries(Intel)
	if len(stats) != 16 {
		t.Fatalf("rediscovery rows = %d, want 16", len(stats))
	}
	// The first document cannot inherit anything.
	if stats[0].Inherited != 0 {
		t.Errorf("first document inherited %d", stats[0].Inherited)
	}
	// Later documents inherit heavily (D/M pairs, gens 6-10 block).
	inheritedTotal := 0
	for _, r := range stats {
		if r.KnownAtRelease > r.Inherited || r.Inherited > r.Keys {
			t.Errorf("%s: inconsistent row %+v", r.DocKey, r)
		}
		inheritedTotal += r.Inherited
	}
	if inheritedTotal < 500 {
		t.Errorf("total inherited = %d, expected substantial heredity", inheritedTotal)
	}
	out := RenderRediscoveries(stats)
	if !strings.Contains(out, "intel-06") || !strings.Contains(out, "known@release") {
		t.Errorf("render:\n%s", out)
	}
}

func TestSaveLoadFacade(t *testing.T) {
	db := testDB(t)
	path := filepath.Join(t.TempDir(), "db.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Stats() != db.Stats() {
		t.Errorf("stats differ after load: %+v vs %+v", loaded.Stats(), db.Stats())
	}
	if loaded.Report() != nil {
		t.Error("loaded database should have no build report")
	}
	// Experiments needing the report degrade gracefully.
	x := NewExperiments(loaded)
	fig8 := x.Figure8()
	if fig8.Passed() {
		t.Error("figure-8 should report the missing build report")
	}
	// All other experiments still pass on the loaded database.
	for _, ex := range x.All() {
		switch ex.ID {
		case "figure-8", "figure-9", "decision-reduction":
			continue
		}
		for _, c := range ex.Checks {
			if !c.Pass {
				t.Errorf("loaded db: %s check %q failed: %s", ex.ID, c.Name, c.Detail)
			}
		}
	}
	// Observations hold on the loaded database too.
	for _, o := range loaded.Observations() {
		if !o.Holds {
			t.Errorf("loaded db: %s fails: %s", o.ID, o.Evidence)
		}
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("Load of missing file should fail")
	}
}

func TestExportCSVs(t *testing.T) {
	db := testDB(t)
	csvs := NewExperiments(db).ExportCSVs()
	if len(csvs) < 5 {
		t.Errorf("CSV exports = %d, want >= 5", len(csvs))
	}
	for id, csv := range csvs {
		if !strings.Contains(csv, "\n") {
			t.Errorf("%s: degenerate CSV", id)
		}
	}
	if _, ok := csvs["table-3"]; !ok {
		t.Error("table-3 CSV missing")
	}
}

func TestExtensionExperiments(t *testing.T) {
	db := testDB(t)
	x := NewExperiments(db)
	exts := x.Extensions()
	if len(exts) != 3 {
		t.Fatalf("extensions = %d", len(exts))
	}
	for _, ex := range exts {
		if ex.Text == "" {
			t.Errorf("%s: empty rendering", ex.ID)
		}
		for _, c := range ex.Checks {
			if !c.Pass {
				t.Errorf("%s: check %q failed: %s", ex.ID, c.Name, c.Detail)
			}
		}
	}
	if ex, err := x.ExtByID("ext-severity"); err != nil || ex.ID != "ext-severity" {
		t.Errorf("ExtByID(ext-severity): %v", err)
	}
	// Fallback to paper experiments.
	if ex, err := x.ExtByID("figure-10"); err != nil || ex.ID != "figure-10" {
		t.Errorf("ExtByID(figure-10): %v", err)
	}
	if _, err := x.ExtByID("nonsense"); err == nil {
		t.Error("ExtByID accepted unknown id")
	}
}

func TestHTMLReport(t *testing.T) {
	db := testDB(t)
	page := HTMLReport(db)
	for _, want := range []string{
		"<!DOCTYPE html", "figure-10", "ext-casestudy", "O13", "</html>",
		"<svg", "2563",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("HTML report missing %q", want)
		}
	}
	if strings.Contains(page, "class=\"fail\"") {
		t.Error("HTML report contains failing checks")
	}
	// Text content must be escaped (no raw description injection).
	if strings.Contains(page, "<Processor") {
		t.Error("unescaped content in report")
	}
}

// Cross-seed robustness: the qualitative results must not depend on the
// corpus seed. Building is expensive, so one extra seed suffices here;
// the bench suite sweeps more.
func TestCrossSeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive: builds a second database")
	}
	db, _, err := Build(WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Total != 2563 || st.Unique != 1128 {
		t.Fatalf("seed 99: stats = %+v", st)
	}
	for _, o := range db.Observations() {
		if !o.Holds {
			t.Errorf("seed 99: %s fails: %s", o.ID, o.Evidence)
		}
	}
	for _, ex := range NewExperiments(db).All() {
		for _, c := range ex.Checks {
			if !c.Pass {
				t.Errorf("seed 99: %s check %q failed: %s", ex.ID, c.Name, c.Detail)
			}
		}
	}
}

// TestDeepRoundTrip checks field-by-field fidelity of JSON persistence
// on the full built database.
func TestDeepRoundTrip(t *testing.T) {
	db := testDB(t)
	path := filepath.Join(t.TempDir(), "deep.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	want := db.Documents()
	got := loaded.Documents()
	if len(want) != len(got) {
		t.Fatalf("document counts differ")
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Key != g.Key || w.Vendor != g.Vendor || w.Label != g.Label ||
			w.Reference != g.Reference || w.Order != g.Order ||
			w.GenIndex != g.GenIndex || !w.Released.Equal(g.Released) {
			t.Fatalf("%s: header differs", w.Key)
		}
		if len(w.Revisions) != len(g.Revisions) || len(w.Errata) != len(g.Errata) ||
			len(w.Withdrawn) != len(g.Withdrawn) {
			t.Fatalf("%s: structure differs", w.Key)
		}
		for j := range w.Revisions {
			wr, gr := w.Revisions[j], g.Revisions[j]
			if wr.Number != gr.Number || !wr.Date.Equal(gr.Date) || len(wr.Added) != len(gr.Added) {
				t.Fatalf("%s rev %d differs", w.Key, wr.Number)
			}
		}
		for j := range w.Errata {
			we, ge := w.Errata[j], g.Errata[j]
			if we.ID != ge.ID || we.Seq != ge.Seq || we.Title != ge.Title ||
				we.Description != ge.Description || we.Implication != ge.Implication ||
				we.Workaround != ge.Workaround || we.Status != ge.Status ||
				we.WorkaroundCat != ge.WorkaroundCat || we.Fix != ge.Fix ||
				we.AddedIn != ge.AddedIn || !we.Disclosed.Equal(ge.Disclosed) ||
				we.Key != ge.Key {
				t.Fatalf("%s/%s: fields differ", w.Key, we.ID)
			}
			wa, ga := we.Ann, ge.Ann
			if len(wa.Triggers) != len(ga.Triggers) || len(wa.Contexts) != len(ga.Contexts) ||
				len(wa.Effects) != len(ga.Effects) || len(wa.MSRs) != len(ga.MSRs) ||
				wa.ComplexConditions != ga.ComplexConditions ||
				wa.TrivialTrigger != ga.TrivialTrigger ||
				wa.SimulationOnly != ga.SimulationOnly {
				t.Fatalf("%s/%s: annotation differs", w.Key, we.ID)
			}
			for k := range wa.Triggers {
				if wa.Triggers[k] != ga.Triggers[k] {
					t.Fatalf("%s/%s: trigger item %d differs", w.Key, we.ID, k)
				}
			}
		}
	}
}
