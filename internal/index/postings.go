package index

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
)

// List is a read-only sorted postings list of erratum ordinals. Two
// implementations exist: Ords, a plain heap slice produced by
// Build/MergeDelta, and Span, a view over little-endian u32 bytes —
// typically a sub-slice of a FormatVersion 2 file mapping, so a
// span-backed index answers compound-filter queries by walking postings
// straight off the mapped file without ever copying them into the heap.
//
// Lists are immutable once published; every accessor is safe for
// concurrent readers.
type List interface {
	Len() int
	At(i int) int
}

// Ords is the heap-resident List: a sorted slice of ordinals.
type Ords []int

func (o Ords) Len() int     { return len(o) }
func (o Ords) At(i int) int { return o[i] }

// Span is a disk-resident List: little-endian u32 ordinals viewed in
// place, with no per-element heap state. Reading an element after the
// backing region is unmapped is undefined; the serving layer's region
// refcount (internal/store.Region) guarantees that never happens to an
// in-flight request.
type Span struct{ b []byte }

// NewSpan wraps raw little-endian u32 bytes as a postings list. The
// byte length must be a multiple of 4; the caller (the store's bounds
// validation) guarantees every element is a valid ordinal.
func NewSpan(b []byte) Span {
	if len(b)%4 != 0 {
		panic(fmt.Sprintf("index: span of %d bytes is not u32-aligned", len(b)))
	}
	return Span{b: b}
}

func (s Span) Len() int     { return len(s.b) / 4 }
func (s Span) At(i int) int { return int(binary.LittleEndian.Uint32(s.b[i*4:])) }

// toInts materializes a List as []int, aliasing the underlying slice
// when the list already lives in the heap.
func toInts(l List) []int {
	switch v := l.(type) {
	case nil:
		return nil
	case Ords:
		return v
	default:
		out := make([]int, l.Len())
		for i := range out {
			out[i] = l.At(i)
		}
		return out
	}
}

// apOrd appends one ordinal to a heap-resident list. Builders (Build,
// MergeDelta) only ever grow Ords; appending to a Span would mean
// mutating a file mapping and panics via the type assertion.
func apOrd(l List, ord int) List {
	o, _ := l.(Ords)
	return append(o, ord)
}

// pushOrd appends one ordinal to a postings map entry, creating it on
// first use.
func pushOrd[K comparable](m map[K]List, k K, ord int) {
	o, _ := m[k].(Ords)
	m[k] = append(o, ord)
}

// listLen is Len with a nil guard (map lookups of absent keys return a
// nil List).
func listLen(l List) int {
	if l == nil {
		return 0
	}
	return l.Len()
}

// intersectInto merges the sorted []int candidates with a sorted List
// into their intersection. The common Ords case degenerates to the
// two-slice walk; a Span is walked element-wise off its bytes.
func intersectInto(a []int, b List) []int {
	if o, ok := b.(Ords); ok {
		return intersect(a, o)
	}
	nb := b.Len()
	n := len(a)
	if nb < n {
		n = nb
	}
	out := make([]int, 0, n)
	i, j := 0, 0
	for i < len(a) && j < nb {
		bv := b.At(j)
		switch {
		case a[i] < bv:
			i++
		case a[i] > bv:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// ListParts is the List-typed sibling of Parts: the complete structural
// state of an index with every postings family behind the List
// interface, so a FormatVersion 2 store can hand the index spans over
// its mapped ords section instead of materializing []int copies.
// FromLists is the only consumer; Parts stays the exported flat-slice
// carrier the encoder persists.
type ListParts struct {
	UniqueOrds   List
	ByVendor     map[core.Vendor]List
	ByDoc        map[string]List
	ByCategory   map[string]List
	ByTriggerCat map[string]List
	ByClass      map[string]List
	ByKey        map[string]List
	ByWorkaround map[core.WorkaroundCategory]List
	ByFix        map[core.FixStatus]List
	ByMSR        map[string]List
	ComplexSet   List
	SimOnlySet   List
	// TriggerCount holds per-ordinal trigger-category counts (values,
	// not ordinals), indexed positionally.
	TriggerCount List
}

// FromLists reconstructs an Index over db from List-typed parts —
// typically spans over a mapped FormatVersion 2 file — skipping both
// the annotation walk and the postings materialization. The parts must
// describe an index over a database with the same Errata() order (the
// store's v2 decoder guarantees this by checksumming the records and
// postings together); only the cheap structural invariant — one
// trigger count per entry, every unique ordinal in range — is
// re-checked here, since the store's open-time validation already
// bounds-checked every ordinal and sorted every list. db must not be
// mutated while the index is in use.
func FromLists(db *core.Database, p *ListParts) (*Index, error) {
	errata := db.Errata()
	if n := listLen(p.TriggerCount); n != len(errata) {
		return nil, fmt.Errorf("index: parts carry %d trigger counts for %d entries", n, len(errata))
	}
	for i, n := 0, listLen(p.UniqueOrds); i < n; i++ {
		if ord := p.UniqueOrds.At(i); ord < 0 || ord >= len(errata) {
			return nil, fmt.Errorf("index: parts unique ordinal %d out of range [0,%d)", ord, len(errata))
		}
	}
	ix := &Index{
		db:           db,
		scheme:       db.Scheme,
		errata:       errata,
		uniqueOrds:   p.UniqueOrds,
		byVendor:     p.ByVendor,
		byDoc:        p.ByDoc,
		byCategory:   p.ByCategory,
		byTriggerCat: p.ByTriggerCat,
		byClass:      p.ByClass,
		byKey:        p.ByKey,
		byWorkaround: p.ByWorkaround,
		byFix:        p.ByFix,
		byMSR:        p.ByMSR,
		complexSet:   p.ComplexSet,
		simOnlySet:   p.SimOnlySet,
		triggerCount: p.TriggerCount,
	}
	return ix, nil
}
