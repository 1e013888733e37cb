package store

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/index"
)

// benchCorpus returns the seed-1 corpus encoded in both formats. The
// cold-open benchmarks measure everything `errserve -db` does between
// reading the file bytes and having a servable snapshot: database in
// memory, query index ready, response fragments ready. Each body takes
// the same calls the serving layer's snapshot builder makes for its
// format (the v2 index reads its postings as spans over the file).
func benchCorpus(b *testing.B) (v1, v2 []byte) {
	b.Helper()
	gt, err := corpus.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	if v1, err = Encode(gt.DB); err != nil {
		b.Fatal(err)
	}
	if v2, err = EncodeV2(gt.DB, V2Options{Postings: true, Fragments: true}); err != nil {
		b.Fatal(err)
	}
	return v1, v2
}

func BenchmarkColdOpenV1(b *testing.B) {
	v1, _ := benchCorpus(b)
	b.SetBytes(int64(len(v1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := OpenBytes(v1)
		if err != nil {
			b.Fatal(err)
		}
		db, err := r.Database()
		if err != nil {
			b.Fatal(err)
		}
		ix := index.Build(db)
		frags, err := BuildFragments(db)
		if err != nil {
			b.Fatal(err)
		}
		_, _ = ix, frags
	}
}

func BenchmarkColdOpenV2(b *testing.B) {
	_, v2 := benchCorpus(b)
	b.SetBytes(int64(len(v2)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv, err := OpenV2(v2)
		if err != nil {
			b.Fatal(err)
		}
		db, err := sv.Database()
		if err != nil {
			b.Fatal(err)
		}
		ix, err := index.FromLists(db, sv.IndexLists())
		if err != nil {
			b.Fatal(err)
		}
		frags, err := sv.Fragments()
		if err != nil {
			b.Fatal(err)
		}
		_, _ = ix, frags
	}
}

func BenchmarkEncodeV1(b *testing.B) {
	gt, err := corpus.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(gt.DB); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeV2(b *testing.B) {
	gt, err := corpus.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeV2(gt.DB, V2Options{Postings: true, Fragments: true}); err != nil {
			b.Fatal(err)
		}
	}
}
