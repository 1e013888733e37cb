package main

import (
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/taxonomy"
)

// opKind is the kind of one generated request.
type opKind int

const (
	opLookup opKind = iota // GET /v1/errata/{key}
	opList                 // GET /v1/errata?...
	opStats                // GET /v1/stats
	opIngest               // POST /v1/admin/ingest
)

var opNames = [...]string{"lookup", "list", "stats", "ingest"}

func (k opKind) String() string { return opNames[k] }

// op is one request of a workload's sequence. The same value renders
// the HTTP request the server receives and, for lists, the index calls
// the traced run makes directly.
type op struct {
	kind opKind
	path string     // request path with query string
	list *listQuery // set for opList
	body string     // set for opIngest
}

// listQuery is one /v1/errata filter set. Every field is rendered
// explicitly (unique, offset and limit included), so the server never
// applies a default the index calls would not.
type listQuery struct {
	vendor      string
	class       string
	category    string
	anyCategory []string
	minTriggers int
	title       string
	unique      bool
	offset      int
	limit       int
}

func (q *listQuery) path() string {
	v := url.Values{}
	if q.vendor != "" {
		v.Set("vendor", q.vendor)
	}
	if q.class != "" {
		v.Set("class", q.class)
	}
	if q.category != "" {
		v.Set("category", q.category)
	}
	if len(q.anyCategory) > 0 {
		v.Set("any_category", strings.Join(q.anyCategory, ","))
	}
	if q.minTriggers > 0 {
		v.Set("min_triggers", strconv.Itoa(q.minTriggers))
	}
	if q.title != "" {
		v.Set("title", q.title)
	}
	v.Set("unique", strconv.FormatBool(q.unique))
	v.Set("offset", strconv.Itoa(q.offset))
	v.Set("limit", strconv.Itoa(q.limit))
	return "/v1/errata?" + v.Encode()
}

// run evaluates the filters on ix and returns the unpaginated matches,
// exactly as the server's request compiler does.
func (q *listQuery) run(ix *index.Index) []*core.Erratum {
	iq := ix.Query()
	if q.vendor != "" {
		v, _ := core.ParseVendor(q.vendor) // generated from the two valid names
		iq.Vendor(v)
	}
	if q.class != "" {
		iq.WithClass(q.class)
	}
	if q.category != "" {
		iq.WithCategory(q.category)
	}
	if len(q.anyCategory) > 0 {
		iq.AnyCategory(q.anyCategory...)
	}
	if q.minTriggers > 0 {
		iq.MinTriggers(q.minTriggers)
	}
	if q.title != "" {
		iq.TitleContains(q.title)
	}
	if q.unique {
		return iq.Unique()
	}
	return iq.All()
}

// page applies offset/limit to a full match list.
func (q *listQuery) page(all []*core.Erratum) []*core.Erratum {
	if q.offset >= len(all) {
		return nil
	}
	all = all[q.offset:]
	if len(all) > q.limit {
		all = all[:q.limit]
	}
	return all
}

// vocab is what the query generator draws from: the served corpus's
// keys and title words plus the taxonomy's classes and categories.
type vocab struct {
	keys       []string // unique cluster keys, sorted
	titleWords []string // title words of at least five letters, sorted
	classes    []string
	categories []string
}

func newVocab(db *core.Database) *vocab {
	v := &vocab{}
	words := map[string]bool{}
	// Strings are cloned: the database's may alias a file mapping that
	// is closed before the requests are sent.
	for _, e := range db.Unique() {
		v.keys = append(v.keys, strings.Clone(e.Key))
		for _, w := range strings.Fields(strings.ToLower(e.Title)) {
			w = strings.Trim(w, ".,;:()[]\"'")
			if len(w) >= 5 && strings.IndexFunc(w, func(r rune) bool { return r < 'a' || r > 'z' }) < 0 {
				words[strings.Clone(w)] = true
			}
		}
	}
	sort.Strings(v.keys)
	for w := range words {
		v.titleWords = append(v.titleWords, w)
	}
	sort.Strings(v.titleWords)
	scheme := taxonomy.Base()
	v.classes = scheme.ClassIDs(-1)
	v.categories = scheme.CategoryIDs(-1)
	return v
}

var (
	offsets = []int{0, 0, 0, 0, 10, 20, 50, 100}
	limits  = []int{10, 20, 50, 100}
)

// randomList draws one filter set over vendor × class × category ×
// any_category × min_triggers × title × unique × offset/limit. Every
// set has at least one of class, category, any_category or title, so
// the space holds far more distinct canonical keys than the server's
// 256-entry result cache.
func (v *vocab) randomList(rng *rand.Rand) *listQuery {
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	q := &listQuery{unique: rng.Intn(10) < 7, offset: offsets[rng.Intn(len(offsets))], limit: limits[rng.Intn(len(limits))]}
	switch rng.Intn(4) {
	case 0:
		q.class = pick(v.classes)
	case 1:
		q.category = pick(v.categories)
	case 2:
		for i := 0; i < 2+rng.Intn(2); i++ {
			q.anyCategory = append(q.anyCategory, pick(v.categories))
		}
	default:
		q.title = pick(v.titleWords)
	}
	if rng.Intn(2) == 0 {
		q.vendor = [...]string{"Intel", "AMD"}[rng.Intn(2)]
	}
	if rng.Intn(4) == 0 {
		q.minTriggers = 1 + rng.Intn(3)
	}
	if q.category == "" && rng.Intn(5) == 0 {
		q.category = pick(v.categories)
	}
	return q
}

func lookupOp(key string) op {
	return op{kind: opLookup, path: "/v1/errata/" + url.PathEscape(key)}
}

func listOp(q *listQuery) op { return op{kind: opList, list: q, path: q.path()} }

var statsOp = op{kind: opStats, path: "/v1/stats"}

// Mix shares of the read workloads, in percent.
const (
	hotKeys       = 32
	hotLists      = 8
	hotLookupPct  = 70  // lookups over the hot keys
	hotListPct    = 25  // repeats of the hot lists; the rest is /v1/stats
	scanListPct   = 80  // serve-scan: fresh lists; the rest is uniform lookups
	ingestListPct = 100 // ingest reads: fresh lists only, since a lookup of a key a POST removed is a 404
	readSampleGap = 50  // every 50th read response is checked
)

// hotReads returns n serve-hot requests: point lookups over a few hot
// keys, a few repeated list queries and /v1/stats, so every response
// fits the result cache.
func (v *vocab) hotReads(rng *rand.Rand, n int) []op {
	keys := make([]string, hotKeys)
	for i := range keys {
		keys[i] = v.keys[rng.Intn(len(v.keys))]
	}
	lists := make([]*listQuery, hotLists)
	for i := range lists {
		lists[i] = v.randomList(rng)
	}
	ops := make([]op, n)
	for i := range ops {
		switch r := rng.Intn(100); {
		case r < hotLookupPct:
			ops[i] = lookupOp(keys[rng.Intn(len(keys))])
		case r < hotLookupPct+hotListPct:
			ops[i] = listOp(lists[rng.Intn(len(lists))])
		default:
			ops[i] = statsOp
		}
	}
	return ops
}

// scanReads returns n serve-scan requests: freshly drawn list queries
// and listPct-complementary point lookups uniform over every unique
// key.
func (v *vocab) scanReads(rng *rand.Rand, n, listPct int) []op {
	ops := make([]op, n)
	for i := range ops {
		if rng.Intn(100) < listPct {
			ops[i] = listOp(v.randomList(rng))
		} else {
			ops[i] = lookupOp(v.keys[rng.Intn(len(v.keys))])
		}
	}
	return ops
}

// interleave merges a write stream into a read stream by due time:
// reads are due every 1/readRate seconds and writes every 1/writeRate
// seconds, starting with a read. The result is ordered by due time and
// due[i] gives each op's offset from the start.
func interleave(reads, writes []op, readRate, writeRate float64) (ops []op, due []time.Duration) {
	ri, wi := 0, 0
	for ri < len(reads) || wi < len(writes) {
		rt := offset(float64(ri) / readRate)
		wt := offset((float64(wi) + 0.5) / writeRate)
		if wi >= len(writes) || (ri < len(reads) && rt <= wt) {
			ops, due = append(ops, reads[ri]), append(due, rt)
			ri++
		} else {
			ops, due = append(ops, writes[wi]), append(due, wt)
			wi++
		}
	}
	return ops, due
}

// evenDue returns the due offsets of n ops at a fixed rate.
func evenDue(n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = offset(float64(i) / rate)
	}
	return due
}

func offset(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }
