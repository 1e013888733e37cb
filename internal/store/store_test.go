package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func date(y, m, d int) time.Time {
	return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
}

// openDBBytes materializes a database from an encoded buffer through
// the OpenBytes entry point.
func openDBBytes(tb testing.TB, data []byte) *core.Database {
	tb.Helper()
	r, err := OpenBytes(data)
	if err != nil {
		tb.Fatal(err)
	}
	db, err := r.Database()
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// openDBFile materializes a database from a file through Open. Mmap is
// off: the reader is closed on return, and a materialized database
// must not outlive the mapping it aliases.
func openDBFile(tb testing.TB, path string) *core.Database {
	tb.Helper()
	r, err := Open(path, WithMmap(false))
	if err != nil {
		tb.Fatal(err)
	}
	defer r.Close()
	db, err := r.Database()
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

func sampleDB(t *testing.T) *core.Database {
	t.Helper()
	db := core.NewDatabase()
	d := &core.Document{
		Key: "intel-06", Vendor: core.Intel, Label: "6", Reference: "332689-028US",
		Order: 0, GenIndex: 6, Released: date(2015, 8, 1),
		Revisions: []core.Revision{
			{Number: 1, Date: date(2015, 9, 1), Added: []string{"SKL001"}},
		},
		Withdrawn: []string{"SKL900"},
		Errata: []*core.Erratum{
			{
				DocKey: "intel-06", ID: "SKL001", Seq: 1,
				Title:       "Processor May Hang",
				Description: "When thermal throttling engages under load, the processor may hang.",
				Implication: "System may hang.",
				Workaround:  "None identified.",
				Status:      "No fix planned.",
				Fix:         core.FixNone, WorkaroundCat: core.WorkaroundNone,
				AddedIn: 1, Disclosed: date(2015, 9, 1), Key: "I-0001",
				Ann: core.Annotation{
					Triggers:          []core.Item{{Category: "Trg_POW_tht", Concrete: "thermal throttling engages under load"}},
					Effects:           []core.Item{{Category: "Eff_HNG_hng", Concrete: "the processor may hang"}},
					MSRs:              []string{"MCx_STATUS"},
					ComplexConditions: true,
				},
			},
		},
	}
	if err := db.Add(d); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestRoundTrip(t *testing.T) {
	db := sampleDB(t)
	data, err := Encode(db)
	if err != nil {
		t.Fatal(err)
	}
	got := openDBBytes(t, data)
	d1 := db.Docs["intel-06"]
	d2 := got.Docs["intel-06"]
	if d2 == nil {
		t.Fatal("document lost")
	}
	if d1.Label != d2.Label || d1.Reference != d2.Reference ||
		!d1.Released.Equal(d2.Released) || d1.GenIndex != d2.GenIndex {
		t.Errorf("document header mismatch: %+v vs %+v", d1, d2)
	}
	if len(d2.Withdrawn) != 1 || d2.Withdrawn[0] != "SKL900" {
		t.Errorf("withdrawn = %v", d2.Withdrawn)
	}
	e1, e2 := d1.Errata[0], d2.Errata[0]
	if e1.Title != e2.Title || e1.Description != e2.Description ||
		e1.Key != e2.Key || e1.AddedIn != e2.AddedIn ||
		!e1.Disclosed.Equal(e2.Disclosed) ||
		e1.Fix != e2.Fix || e1.WorkaroundCat != e2.WorkaroundCat {
		t.Errorf("erratum mismatch:\n%+v\n%+v", e1, e2)
	}
	if len(e2.Ann.Triggers) != 1 || e2.Ann.Triggers[0].Category != "Trg_POW_tht" ||
		e2.Ann.Triggers[0].Concrete != e1.Ann.Triggers[0].Concrete {
		t.Errorf("annotation mismatch: %+v", e2.Ann)
	}
	if !e2.Ann.ComplexConditions || len(e2.Ann.MSRs) != 1 {
		t.Errorf("flags lost: %+v", e2.Ann)
	}
}

func TestDeterministicEncoding(t *testing.T) {
	db := sampleDB(t)
	a, err := Encode(db)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(db)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("encoding not deterministic")
	}
}

func TestDecodeRejects(t *testing.T) {
	if _, err := OpenBytes([]byte("not json")); err == nil {
		t.Error("accepted garbage")
	}
	if _, err := OpenBytes([]byte(`{"version": 99, "documents": []}`)); err == nil {
		t.Error("accepted wrong version")
	}
	bad := `{"version":1,"documents":[{"key":"x","vendor":"VIA","label":"l","released":"2015-01-01"}]}`
	if _, err := OpenBytes([]byte(bad)); err == nil {
		t.Error("accepted unknown vendor")
	}
	badDate := `{"version":1,"documents":[{"key":"x","vendor":"Intel","label":"l","released":"someday"}]}`
	if _, err := OpenBytes([]byte(badDate)); err == nil {
		t.Error("accepted bad date")
	}
	badAnn := `{"version":1,"documents":[{"key":"x","vendor":"Intel","label":"l","released":"2015-01-01",
		"errata":[{"id":"A","seq":1,"title":"t","workaround_category":"None","fix_status":"Fixed",
		"triggers":[{"category":"Trg_NOPE_xxx"}]}]}]}`
	if _, err := OpenBytes([]byte(badAnn)); err == nil {
		t.Error("accepted invalid annotation category")
	}
}

func TestSaveLoad(t *testing.T) {
	db := sampleDB(t)
	path := filepath.Join(t.TempDir(), "db.json")
	if err := Save(db, path); err != nil {
		t.Fatal(err)
	}
	got := openDBFile(t, path)
	if got.ComputeStats().Total != 1 {
		t.Error("load lost errata")
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("Open of missing file should fail")
	}
}

func TestSaveLoadGzip(t *testing.T) {
	db := sampleDB(t)
	dir := t.TempDir()
	plain := filepath.Join(dir, "db.json")
	zipped := filepath.Join(dir, "db.json.gz")
	if err := Save(db, plain); err != nil {
		t.Fatal(err)
	}
	if err := Save(db, zipped); err != nil {
		t.Fatal(err)
	}
	pi, err := os.Stat(plain)
	if err != nil {
		t.Fatal(err)
	}
	zi, err := os.Stat(zipped)
	if err != nil {
		t.Fatal(err)
	}
	if zi.Size() >= pi.Size() {
		t.Errorf("gzip did not shrink: %d vs %d", zi.Size(), pi.Size())
	}
	got := openDBFile(t, zipped)
	if got.ComputeStats().Total != 1 {
		t.Error("gzip round-trip lost errata")
	}
	// A .gz path with non-gzip content must fail cleanly.
	bad := filepath.Join(dir, "bad.json.gz")
	if err := os.WriteFile(bad, []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad); err == nil {
		t.Error("accepted corrupt gzip")
	}
}

func TestEncodeStructured(t *testing.T) {
	db := sampleDB(t)
	data, err := EncodeStructured(db)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"id": "I-0001"`, `"Trg_POW_tht"`, `"status": "NoFixPlanned"`} {
		if !strings.Contains(s, want) {
			t.Errorf("structured JSON missing %s:\n%s", want, s)
		}
	}
}
