package index

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
)

// spanOf encodes a heap list as little-endian u32 bytes and wraps it as
// a Span — the same representation the FormatVersion 2 ords section
// uses, without needing a store file.
func spanOf(t *testing.T, l List) List {
	t.Helper()
	if l == nil {
		return nil
	}
	b := make([]byte, 4*l.Len())
	for i := 0; i < l.Len(); i++ {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(l.At(i)))
	}
	return NewSpan(b)
}

func spanMap[K comparable](t *testing.T, m map[K]List) map[K]List {
	t.Helper()
	out := make(map[K]List, len(m))
	for k, l := range m {
		out[k] = spanOf(t, l)
	}
	return out
}

// TestSpanIndexEquivalence proves the disk-resident postings iterator:
// an index whose every postings list is a Span over u32 bytes answers
// all query shapes and dumps identically to the heap-built index. This
// is the in-package oracle for the mmap-backed store handing the index
// spans over its mapped ords section.
func TestSpanIndexEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 19} {
		gt, err := corpus.Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		built := Build(gt.DB)
		lp := &ListParts{
			UniqueOrds:   spanOf(t, built.uniqueOrds),
			ByVendor:     spanMap(t, built.byVendor),
			ByDoc:        spanMap(t, built.byDoc),
			ByCategory:   spanMap(t, built.byCategory),
			ByTriggerCat: spanMap(t, built.byTriggerCat),
			ByClass:      spanMap(t, built.byClass),
			ByKey:        spanMap(t, built.byKey),
			ByWorkaround: spanMap(t, built.byWorkaround),
			ByFix:        spanMap(t, built.byFix),
			ByMSR:        spanMap(t, built.byMSR),
			ComplexSet:   spanOf(t, built.complexSet),
			SimOnlySet:   spanOf(t, built.simOnlySet),
			TriggerCount: spanOf(t, built.triggerCount),
		}
		spanned, err := FromLists(gt.DB, lp)
		if err != nil {
			t.Fatalf("seed %d: FromLists: %v", seed, err)
		}
		if !bytes.Equal(built.DebugDump(), spanned.DebugDump()) {
			t.Fatalf("seed %d: span-backed index dumps differently from heap-built", seed)
		}
		for _, q := range []struct {
			name string
			run  func(ix *Index) []*core.Erratum
		}{
			{"all", func(ix *Index) []*core.Erratum { return ix.Query().All() }},
			{"unique", func(ix *Index) []*core.Erratum { return ix.Query().Unique() }},
			{"complex", func(ix *Index) []*core.Erratum { return ix.Query().Complex().All() }},
			{"vendor", func(ix *Index) []*core.Erratum { return ix.Query().Vendor(core.Intel).All() }},
			{"min-triggers", func(ix *Index) []*core.Erratum { return ix.Query().MinTriggers(2).All() }},
			{"compound", func(ix *Index) []*core.Erratum {
				return ix.Query().Vendor(core.Intel).Complex().MinTriggers(1).Unique()
			}},
		} {
			a, b := q.run(built), q.run(spanned)
			if len(a) != len(b) {
				t.Fatalf("seed %d: query %s: heap %d entries, span %d", seed, q.name, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed %d: query %s: entry %d differs (%s vs %s)",
						seed, q.name, i, a[i].FullID(), b[i].FullID())
				}
			}
		}
		// A delta merge from a span-backed previous index must equal one
		// from the heap-built index (and both equal a fresh Build).
		if !bytes.Equal(MergeDelta(spanned, gt.DB).DebugDump(), MergeDelta(built, gt.DB).DebugDump()) {
			t.Fatalf("seed %d: MergeDelta from span-backed prev diverges", seed)
		}
	}
}

// BenchmarkBuild measures index construction over the full seed-1
// corpus: tokenizing every erratum into the postings lists.
func BenchmarkBuild(b *testing.B) {
	gt, err := corpus.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(gt.DB)
	}
}
