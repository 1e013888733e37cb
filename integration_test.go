package rememberr

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/serve"
)

// TestSaveLoadServeRoundTrip is the CLI persistence contract as an
// in-process integration test: 'rememberr build -o db.json.gz' followed
// by 'errserve -db db.json.gz' must serve exactly the statistics of the
// freshly built database, without rebuilding.
func TestSaveLoadServeRoundTrip(t *testing.T) {
	built, _, err := Build(WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.json.gz")
	if err := built.Save(path); err != nil {
		t.Fatal(err)
	}

	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// Loaded databases carry data only: no build report.
	if loaded.Report() != nil {
		t.Error("loaded database has a build report")
	}

	s, err := serve.New(serve.WithDatabase(loaded.Core()), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats: status %d", resp.StatusCode)
	}
	var got struct {
		Documents    int    `json:"documents"`
		IntelDocs    int    `json:"intel_documents"`
		AMDDocs      int    `json:"amd_documents"`
		Total        int    `json:"errata"`
		IntelTotal   int    `json:"intel_errata"`
		AMDTotal     int    `json:"amd_errata"`
		Unique       int    `json:"unique"`
		IntelUnique  int    `json:"intel_unique"`
		AMDUnique    int    `json:"amd_unique"`
		Annotated    int    `json:"annotated"`
		Unclassified int    `json:"unclassified"`
		Generation   uint64 `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}

	want := built.Stats()
	checks := []struct {
		name      string
		got, want int
	}{
		{"documents", got.Documents, want.Documents},
		{"intel_documents", got.IntelDocs, want.IntelDocs},
		{"amd_documents", got.AMDDocs, want.AMDDocs},
		{"errata", got.Total, want.Total},
		{"intel_errata", got.IntelTotal, want.IntelTotal},
		{"amd_errata", got.AMDTotal, want.AMDTotal},
		{"unique", got.Unique, want.Unique},
		{"intel_unique", got.IntelUnique, want.IntelUnique},
		{"amd_unique", got.AMDUnique, want.AMDUnique},
		{"annotated", got.Annotated, want.Annotated},
		{"unclassified", got.Unclassified, want.Unclassified},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("served %s = %d, built database has %d", c.name, c.got, c.want)
		}
	}
	if got.Generation != 1 {
		t.Errorf("fresh server reports generation %d, want 1", got.Generation)
	}
}

// TestFromCoreContract pins the provenance contract of store-loaded
// databases: Report is nil, and the stats/serving accessors work
// without panicking.
func TestFromCoreContract(t *testing.T) {
	gt, err := corpus.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	db := FromCore(gt.DB)
	if db.Report() != nil {
		t.Error("FromCore database has a non-nil Report")
	}
	if s := db.Stats(); s.Total == 0 || s.Documents == 0 {
		t.Errorf("FromCore stats empty: %+v", s)
	}
	if len(db.Errata()) == 0 || len(db.Unique()) == 0 || len(db.Documents()) == 0 {
		t.Error("FromCore accessors returned empty data")
	}
	if db.Scheme() == nil {
		t.Error("FromCore database has no scheme")
	}
}
