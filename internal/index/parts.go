package index

import "repro/internal/core"

// Parts is the complete structural state of an Index in exported form:
// every postings family, the precomputed flag sets and trigger counts,
// and the unique-representative ordinals. It exists so the index can be
// persisted alongside the database (the FormatVersion 2 store embeds it
// as flat arrays), which FromLists reads back as ListParts spans without
// re-walking any annotation — the postings-level half of a zero-decode
// cold open.
//
// Ordinals are positions in db.Errata() order, exactly as Build
// produces them. A Parts value extracted from an index built over db is
// only meaningful for a database whose Errata() order is identical.
type Parts struct {
	UniqueOrds   []int
	ByVendor     map[core.Vendor][]int
	ByDoc        map[string][]int
	ByCategory   map[string][]int
	ByTriggerCat map[string][]int
	ByClass      map[string][]int
	ByKey        map[string][]int
	ByWorkaround map[core.WorkaroundCategory][]int
	ByFix        map[core.FixStatus][]int
	ByMSR        map[string][]int
	ComplexSet   []int
	SimOnlySet   []int
	TriggerCount []int
}

// Parts extracts the index's structural state as flat slices. For a
// heap-built index (Build, MergeDelta) the slices and map values alias
// the index's internals and the caller must treat them as read-only,
// exactly like query results; for a span-backed index (FromLists over a
// mapped store) each list is materialized into the heap, since Parts is
// the persistence carrier and must outlive any mapping.
func (ix *Index) Parts() *Parts {
	return &Parts{
		UniqueOrds:   toInts(ix.uniqueOrds),
		ByVendor:     partsMap(ix.byVendor),
		ByDoc:        partsMap(ix.byDoc),
		ByCategory:   partsMap(ix.byCategory),
		ByTriggerCat: partsMap(ix.byTriggerCat),
		ByClass:      partsMap(ix.byClass),
		ByKey:        partsMap(ix.byKey),
		ByWorkaround: partsMap(ix.byWorkaround),
		ByFix:        partsMap(ix.byFix),
		ByMSR:        partsMap(ix.byMSR),
		ComplexSet:   toInts(ix.complexSet),
		SimOnlySet:   toInts(ix.simOnlySet),
		TriggerCount: toInts(ix.triggerCount),
	}
}

func partsMap[K comparable](m map[K]List) map[K][]int {
	out := make(map[K][]int, len(m))
	for k, l := range m {
		out[k] = toInts(l)
	}
	return out
}

// KeyList returns the postings list of ordinals bearing the given
// cluster key, absent keys yielding a nil List. The list is shared with
// the index and must be treated as read-only; unlike ByKey it performs
// no allocation, which the serving layer's fragment-stitched point
// lookup relies on.
func (ix *Index) KeyList(key string) List { return ix.byKey[key] }

// Entry returns the entry at the given ordinal. The ordinal must come
// from this index's postings (KeyList or query results).
func (ix *Index) Entry(ord int) *core.Erratum { return ix.errata[ord] }
