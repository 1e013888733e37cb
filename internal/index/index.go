// Package index provides an inverted-index query engine over a
// core.Database. It precomputes postings lists — sorted slices of
// erratum ordinals — per vendor, document, abstract category, class,
// workaround category, fix status, observable MSR and boolean flag,
// and answers conjunctive filter queries by sorted-slice intersection
// (with per-filter union for disjunctive category sets) instead of the
// O(N·filters) scan the root package's fluent Query performs.
//
// An Index is an immutable snapshot: it is built once from a database
// and is safe for concurrent readers, which is what the serving layer
// (internal/serve) relies on. Mutating the underlying database after
// Build leaves the index stale; rebuild it instead.
//
// Ordinals are positions in db.Errata() order, so intersection results
// are naturally in the same order the closure-based scan produces, and
// the unique-representative list is precomputed in db.Unique() order.
// This makes the indexed and closure query paths return identical
// slices, which the equivalence tests in the root package pin.
package index

import (
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/pkg/domain"
)

// Index is an inverted index over one database snapshot.
type Index struct {
	db     *core.Database
	scheme domain.Scheme

	// errata maps ordinal -> entry, in db.Errata() order.
	errata []*core.Erratum
	// uniqueOrds lists the ordinals of the unique representatives, in
	// db.Unique() order (DocKey, then Seq).
	uniqueOrds List

	// Postings lists are held behind the List interface: Build and
	// MergeDelta produce heap-resident Ords, while FromLists installs
	// Spans viewed straight over a FormatVersion 2 file mapping, so a
	// disk-resident index never copies its postings into the heap.
	byVendor     map[core.Vendor]List
	byDoc        map[string]List
	byCategory   map[string]List // any annotation dimension
	byTriggerCat map[string]List // trigger dimension only
	byClass      map[string]List
	byKey        map[string]List // cluster key -> all occurrences
	byWorkaround map[core.WorkaroundCategory]List
	byFix        map[core.FixStatus]List
	byMSR        map[string]List
	complexSet   List
	simOnlySet   List

	// triggerCount holds, per ordinal, the number of distinct trigger
	// categories (the quantity MinTriggers filters on).
	triggerCount List

	// Instruments (nil until Instrument is called; obs instruments are
	// no-ops on nil receivers, so uninstrumented queries pay one branch).
	intersections *obs.Counter
	residuals     *obs.Counter
}

// Instrument registers the index's query counters in reg: the number
// of pairwise postings-list intersections performed and the number of
// residual-predicate evaluations (candidates that could not be answered
// from postings lists alone and fell back to per-entry predicates).
// Call it once, before the index serves concurrent queries.
func (ix *Index) Instrument(reg *obs.Registry) {
	ix.intersections = reg.Counter("rememberr_index_intersections_total",
		"Pairwise postings-list intersections performed by queries.")
	ix.residuals = reg.Counter("rememberr_index_residual_filters_total",
		"Candidate ordinals filtered through residual predicates (non-indexable filters).")
}

// Build constructs the index for a database. The database must not be
// mutated afterwards while the index is in use.
func Build(db *core.Database) *Index {
	errata := db.Errata()
	ix := &Index{
		db:           db,
		scheme:       db.Scheme,
		errata:       errata,
		byVendor:     make(map[core.Vendor]List),
		byDoc:        make(map[string]List),
		byCategory:   make(map[string]List),
		byTriggerCat: make(map[string]List),
		byClass:      make(map[string]List),
		byKey:        make(map[string]List),
		byWorkaround: make(map[core.WorkaroundCategory]List),
		byFix:        make(map[core.FixStatus]List),
		byMSR:        make(map[string]List),
		triggerCount: make(Ords, len(errata)),
	}
	vendorOf := make(map[string]core.Vendor, len(db.Docs))
	for key, d := range db.Docs {
		vendorOf[key] = d.Vendor
	}
	for ord, e := range errata {
		// Postings are appended in ascending ordinal order, so every
		// list is sorted by construction.
		if e.Key != "" {
			pushOrd(ix.byKey, e.Key, ord)
		}
		ix.addEntry(ord, e, vendorOf)
	}
	ordOf := make(map[*core.Erratum]int, len(errata))
	for ord, e := range errata {
		ordOf[e] = ord
	}
	for _, e := range db.Unique() {
		if ord, ok := ordOf[e]; ok {
			ix.uniqueOrds = apOrd(ix.uniqueOrds, ord)
		}
	}
	return ix
}

// appendOnce appends ord to m[key] unless it is already the last
// element (the same erratum can carry a category or MSR several times).
func appendOnce(m map[string]List, key string, ord int) {
	l, _ := m[key].(Ords)
	if n := len(l); n > 0 && l[n-1] == ord {
		return
	}
	m[key] = append(l, ord)
}

// Database returns the indexed database snapshot.
func (ix *Index) Database() *core.Database { return ix.db }

// Size returns the number of indexed entries (duplicates counted
// individually).
func (ix *Index) Size() int { return len(ix.errata) }

// UniqueCount returns the number of unique representatives.
func (ix *Index) UniqueCount() int { return listLen(ix.uniqueOrds) }

// ByKey returns every entry bearing the given cluster key, in document
// order.
func (ix *Index) ByKey(key string) []*core.Erratum {
	ords := ix.byKey[key]
	out := make([]*core.Erratum, listLen(ords))
	for i := range out {
		out[i] = ix.errata[ords.At(i)]
	}
	return out
}

// Query is one conjunctive filter query under compilation: a set of
// postings lists that must all match, plus residual predicates for the
// non-indexable filters (title substrings, disclosure windows, trigger
// count thresholds). Build one with Index.Query, chain filters, then
// call All or Unique. A Query is single-use per goroutine; the Index
// behind it is safe to share.
type Query struct {
	ix    *Index
	lists []List
	preds []func(ord int) bool
}

// Query starts a new query over the index.
func (ix *Index) Query() *Query { return &Query{ix: ix} }

// none is a shared empty postings list marking a filter that matches
// nothing (e.g. an unknown category).
var none = Ords{}

func (q *Query) list(l List) *Query {
	if l == nil {
		l = none
	}
	q.lists = append(q.lists, l)
	return q
}

func (q *Query) pred(f func(ord int) bool) *Query {
	q.preds = append(q.preds, f)
	return q
}

// Vendor keeps errata of one vendor.
func (q *Query) Vendor(v core.Vendor) *Query { return q.list(q.ix.byVendor[v]) }

// InDocument keeps errata of one document.
func (q *Query) InDocument(key string) *Query { return q.list(q.ix.byDoc[key]) }

// WithCategory keeps errata annotated with the abstract category in any
// dimension.
func (q *Query) WithCategory(categoryID string) *Query {
	return q.list(q.ix.byCategory[categoryID])
}

// AnyCategory keeps errata annotated with at least one of the given
// categories (disjunctive): the postings lists are unioned into one.
// With no categories the query matches nothing, mirroring the closure
// semantics.
func (q *Query) AnyCategory(categoryIDs ...string) *Query {
	var u []int
	for _, c := range categoryIDs {
		u = union(u, toInts(q.ix.byCategory[c]))
	}
	return q.list(Ords(u))
}

// WithClass keeps errata with at least one item of the given class.
func (q *Query) WithClass(classID string) *Query { return q.list(q.ix.byClass[classID]) }

// WithAllTriggers keeps errata requiring at least all the given
// triggers (conjunctive): one postings list per category. With no
// categories the filter is a no-op, mirroring the closure semantics.
func (q *Query) WithAllTriggers(categoryIDs ...string) *Query {
	for _, c := range categoryIDs {
		q.list(q.ix.byTriggerCat[c])
	}
	return q
}

// MinTriggers keeps errata with at least n distinct trigger categories,
// using the precomputed per-entry counts.
func (q *Query) MinTriggers(n int) *Query {
	return q.pred(func(ord int) bool { return q.ix.triggerCount.At(ord) >= n })
}

// Workaround keeps errata with the given workaround category.
func (q *Query) Workaround(w core.WorkaroundCategory) *Query {
	return q.list(q.ix.byWorkaround[w])
}

// Fix keeps errata with the given fix status.
func (q *Query) Fix(f core.FixStatus) *Query { return q.list(q.ix.byFix[f]) }

// Complex keeps errata mentioning a complex set of conditions.
func (q *Query) Complex() *Query { return q.list(q.ix.complexSet) }

// SimulationOnly keeps errata observed only in simulation.
func (q *Query) SimulationOnly() *Query { return q.list(q.ix.simOnlySet) }

// ObservableIn keeps errata whose effects are observable in the MSR.
func (q *Query) ObservableIn(msr string) *Query { return q.list(q.ix.byMSR[msr]) }

// DisclosedBetween keeps errata disclosed in [from, to). Disclosure
// dates are a continuous axis, so this stays a residual predicate.
func (q *Query) DisclosedBetween(from, to time.Time) *Query {
	return q.pred(func(ord int) bool {
		d := q.ix.errata[ord].Disclosed
		return !d.IsZero() && !d.Before(from) && d.Before(to)
	})
}

// TitleContains keeps errata whose title contains the substring
// (case-insensitive). Full-text search stays a residual predicate.
func (q *Query) TitleContains(sub string) *Query {
	lower := strings.ToLower(sub)
	return q.pred(func(ord int) bool {
		return strings.Contains(strings.ToLower(q.ix.errata[ord].Title), lower)
	})
}

// matchOrdinals evaluates the query to a sorted ordinal slice.
func (q *Query) matchOrdinals() []int {
	var cand []int
	if len(q.lists) == 0 {
		// No indexable filter: every entry is a candidate.
		cand = make([]int, len(q.ix.errata))
		for i := range cand {
			cand[i] = i
		}
	} else {
		lists := make([]List, len(q.lists))
		copy(lists, q.lists)
		sort.Slice(lists, func(i, j int) bool { return lists[i].Len() < lists[j].Len() })
		cand = toInts(lists[0])
		merged := int64(0)
		for _, l := range lists[1:] {
			if len(cand) == 0 {
				break
			}
			cand = intersectInto(cand, l)
			merged++
		}
		q.ix.intersections.Add(merged)
	}
	if len(q.preds) == 0 || len(cand) == 0 {
		return cand
	}
	q.ix.residuals.Add(int64(len(cand)))
	out := make([]int, 0, len(cand))
	for _, ord := range cand {
		ok := true
		for _, p := range q.preds {
			if !p(ord) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, ord)
		}
	}
	return out
}

// All returns every matching entry (duplicates counted individually),
// in db.Errata() order — identical to the Query scan.
func (q *Query) All() []*core.Erratum {
	ords := q.matchOrdinals()
	var out []*core.Erratum
	for _, ord := range ords {
		out = append(out, q.ix.errata[ord])
	}
	return out
}

// Unique returns one representative per matching deduplicated erratum,
// in db.Unique() order — identical to the Query scan.
func (q *Query) Unique() []*core.Erratum {
	ords := q.matchOrdinals()
	if len(ords) == 0 {
		return nil
	}
	matched := make([]bool, len(q.ix.errata))
	for _, ord := range ords {
		matched[ord] = true
	}
	var out []*core.Erratum
	for i, n := 0, listLen(q.ix.uniqueOrds); i < n; i++ {
		if ord := q.ix.uniqueOrds.At(i); matched[ord] {
			out = append(out, q.ix.errata[ord])
		}
	}
	return out
}

// Count returns the number of unique matches.
func (q *Query) Count() int { return len(q.Unique()) }

// intersect merges two sorted ordinal slices into their intersection.
func intersect(a, b []int) []int {
	if len(a) > len(b) {
		a, b = b, a
	}
	out := make([]int, 0, len(a))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// union merges two sorted ordinal slices into their sorted union.
func union(a, b []int) []int {
	if len(a) == 0 {
		return append([]int(nil), b...)
	}
	if len(b) == 0 {
		return a
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
