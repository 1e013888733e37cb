package rememberr

import (
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/taxonomy"
)

// Query is a fluent filter over the database's errata, the programmatic
// counterpart of the paper's "example custom script" for bootstrapping
// analyses on the released database. Filters compose conjunctively.
//
//	hangs := db.Query().Vendor(rememberr.Intel).
//	    WithCategory("Eff_HNG_hng").
//	    WithClass("Trg_POW").
//	    Unique()
//
// # Reuse contract
//
// A Query value is immutable: every filter method returns a new derived
// Query and leaves its receiver untouched, so a partially built query
// can be branched safely:
//
//	base := db.Query().Vendor(rememberr.Intel)
//	hangs := base.WithCategory("Eff_HNG_hng")   // base is unchanged
//	crashes := base.WithCategory("Eff_HNG_crh") // still two filters
//
// Terminal operations (All, Unique, Count, Keys) do not consume the
// query either; they can be repeated and interleaved with further
// filtering. Queries are not safe for concurrent mutation, but distinct
// queries over the same database may run concurrently.
//
// # Execution
//
// Terminal operations scan the entries and evaluate every filter per
// entry. The HTTP serving layer answers the same filters from the
// inverted index in internal/index; tests pin both to identical
// results.
type Query struct {
	db      *Database
	filters []filter
}

// filter is one conjunctive condition. It receives the database as an
// argument instead of capturing it, so filters never pin stale state.
type filter func(db *core.Database, e *Erratum) bool

// Query starts a new query over all errata.
func (db *Database) Query() *Query {
	return &Query{db: db}
}

// with returns a new query extended by one filter. Copy-on-extend is
// the guard behind the reuse contract above: the receiver's filter
// slice is never appended to in place, so no two queries ever share a
// growing backing array.
func (q *Query) with(f filter) *Query {
	filters := make([]filter, len(q.filters)+1)
	copy(filters, q.filters)
	filters[len(q.filters)] = f
	return &Query{db: q.db, filters: filters}
}

// Vendor keeps errata of one vendor.
func (q *Query) Vendor(v Vendor) *Query {
	return q.with(func(db *core.Database, e *Erratum) bool {
		d := db.Docs[e.DocKey]
		return d != nil && d.Vendor == v
	})
}

// InDocument keeps errata of one document.
func (q *Query) InDocument(key string) *Query {
	return q.with(func(_ *core.Database, e *Erratum) bool { return e.DocKey == key })
}

// WithCategory keeps errata annotated with the abstract category (any
// dimension).
func (q *Query) WithCategory(categoryID string) *Query {
	return q.with(func(_ *core.Database, e *Erratum) bool { return e.Ann.Has(categoryID) })
}

// AnyCategory keeps errata annotated with at least one of the given
// abstract categories — the disjunctive counterpart of chaining
// WithCategory calls, matching the paper's semantics for contexts and
// effects ("being in any of its contexts is sufficient").
func (q *Query) AnyCategory(categoryIDs ...string) *Query {
	ids := append([]string(nil), categoryIDs...)
	return q.with(func(_ *core.Database, e *Erratum) bool {
		for _, c := range ids {
			if e.Ann.Has(c) {
				return true
			}
		}
		return false
	})
}

// WithClass keeps errata with at least one item of the given class.
func (q *Query) WithClass(classID string) *Query {
	return q.with(func(db *core.Database, e *Erratum) bool {
		for _, k := range taxonomy.Kinds {
			for _, cl := range e.Ann.Classes(k, db.Scheme) {
				if cl == classID {
					return true
				}
			}
		}
		return false
	})
}

// WithAllTriggers keeps errata requiring at least all the given
// triggers (triggers are conjunctive).
func (q *Query) WithAllTriggers(categoryIDs ...string) *Query {
	ids := append([]string(nil), categoryIDs...)
	return q.with(func(_ *core.Database, e *Erratum) bool {
		for _, c := range ids {
			found := false
			for _, it := range e.Ann.Triggers {
				if it.Category == c {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	})
}

// MinTriggers keeps errata with at least n distinct trigger categories.
func (q *Query) MinTriggers(n int) *Query {
	return q.with(func(db *core.Database, e *Erratum) bool {
		return len(e.Ann.Categories(taxonomy.Trigger, db.Scheme)) >= n
	})
}

// Workaround keeps errata with the given workaround category.
func (q *Query) Workaround(w WorkaroundCategory) *Query {
	return q.with(func(_ *core.Database, e *Erratum) bool { return e.WorkaroundCat == w })
}

// Fix keeps errata with the given fix status.
func (q *Query) Fix(f FixStatus) *Query {
	return q.with(func(_ *core.Database, e *Erratum) bool { return e.Fix == f })
}

// Complex keeps errata mentioning a complex set of conditions.
func (q *Query) Complex() *Query {
	return q.with(func(_ *core.Database, e *Erratum) bool { return e.Ann.ComplexConditions })
}

// SimulationOnly keeps errata whose bug has only been observed in
// simulation (the paper found five AMD and one Intel such erratum).
func (q *Query) SimulationOnly() *Query {
	return q.with(func(_ *core.Database, e *Erratum) bool { return e.Ann.SimulationOnly })
}

// DisclosedBetween keeps errata disclosed in [from, to).
func (q *Query) DisclosedBetween(from, to time.Time) *Query {
	return q.with(func(_ *core.Database, e *Erratum) bool {
		return !e.Disclosed.IsZero() && !e.Disclosed.Before(from) && e.Disclosed.Before(to)
	})
}

// TitleContains keeps errata whose title contains the substring
// (case-insensitive).
func (q *Query) TitleContains(sub string) *Query {
	lower := strings.ToLower(sub)
	return q.with(func(_ *core.Database, e *Erratum) bool {
		return strings.Contains(strings.ToLower(e.Title), lower)
	})
}

// ObservableIn keeps errata whose effects are observable in the given
// MSR.
func (q *Query) ObservableIn(msr string) *Query {
	return q.with(func(_ *core.Database, e *Erratum) bool {
		for _, m := range e.Ann.MSRs {
			if m == msr {
				return true
			}
		}
		return false
	})
}

func (q *Query) match(e *Erratum) bool {
	for _, f := range q.filters {
		if !f(q.db.core, e) {
			return false
		}
	}
	return true
}

// All returns every matching entry (duplicates counted individually).
func (q *Query) All() []*Erratum { return q.scan(q.db.core.Errata()) }

// Unique returns one representative per matching deduplicated erratum.
func (q *Query) Unique() []*Erratum { return q.scan(q.db.core.Unique()) }

// scan keeps the entries every filter accepts, in input order.
func (q *Query) scan(entries []*Erratum) []*Erratum {
	var out []*Erratum
	for _, e := range entries {
		if q.match(e) {
			out = append(out, e)
		}
	}
	return out
}

// Count returns the number of unique matches.
func (q *Query) Count() int { return len(q.Unique()) }

// Keys returns the cluster keys of the unique matches.
func (q *Query) Keys() []string {
	var out []string
	for _, e := range q.Unique() {
		out = append(out, e.Key)
	}
	return out
}
