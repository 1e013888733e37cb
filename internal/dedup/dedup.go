// Package dedup implements RemembERR's duplicate detection and keying
// mechanism (Section IV-A of the paper).
//
// AMD identifies errata across families with a shared numeric
// identifier: two families are affected by the same erratum when both
// documents carry an erratum with the same number.
//
// Intel documents offer no such mechanism. Duplicates are detected by
// title: entries with identical normalized titles are duplicates (the
// paper verified by manual inspection that near-identical titles imply
// identical content), and remaining candidates are ranked by decreasing
// title similarity and confirmed through manual review — modeled here as
// an oracle callback.
//
// Every cluster of identical errata receives a unique key, which is
// stored in Erratum.Key and shared by all its occurrences.
package dedup

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/textsim"
)

// Options configures deduplication.
type Options struct {
	// Metric is the title-similarity metric used to rank the manual
	// review candidates. Defaults to Jaccard; an unknown metric is an
	// error.
	Metric textsim.Metric
	// Threshold is the minimum similarity, in [0, 1], for a pair to be
	// surfaced for review. The zero value selects the default 0.6; use
	// SetThreshold to request an explicit threshold of 0 ("review every
	// candidate pair"). A NaN or out-of-range threshold is an error.
	Threshold float64
	// thresholdSet distinguishes an explicit Threshold (possibly zero,
	// via SetThreshold) from the struct's zero value.
	thresholdSet bool
	// Oracle answers whether two entries describe the same erratum; it
	// models the paper's manual inspection of candidate pairs. A nil
	// oracle skips the manual stage (exact-title clustering only).
	Oracle func(a, b *core.Erratum) bool
	// MaxReviews caps the number of oracle consultations (0 = no cap),
	// mirroring the bounded human effort of the paper.
	MaxReviews int
	// Parallelism bounds the worker pool for candidate *scoring* (0 =
	// GOMAXPROCS, 1 = sequential). Oracle consultation stays sequential
	// regardless: it mutates DSU state, so review order is load-bearing.
	// The result is identical at every worker count.
	Parallelism int
}

// SetThreshold sets Threshold explicitly. Unlike assigning the field
// directly, an explicit zero survives normalization and means "surface
// every candidate pair for review" instead of the default 0.6.
func (o *Options) SetThreshold(t float64) {
	o.Threshold = t
	o.thresholdSet = true
}

// CandidatePair is a reviewed candidate duplicate pair.
type CandidatePair struct {
	A, B      *core.Erratum
	Score     float64
	Confirmed bool
}

// Result summarizes a deduplication run.
type Result struct {
	// UniqueIntel and UniqueAMD count the clusters per vendor.
	UniqueIntel int
	UniqueAMD   int
	// ExactTitleClusters counts Intel clusters formed by exact
	// normalized-title matches that span more than one entry.
	ExactTitleClusters int
	// Reviewed lists the similarity-ranked candidate pairs shown to the
	// oracle, in review order.
	Reviewed []CandidatePair
	// ConfirmedPairs counts oracle-confirmed pairs (the paper found 29).
	ConfirmedPairs int
}

// Deduplicate assigns cluster keys to every erratum of the database and
// returns run statistics. Existing keys are overwritten.
func Deduplicate(db *core.Database, opts Options) (*Result, error) {
	if err := opts.Metric.Validate(); err != nil {
		return nil, fmt.Errorf("dedup: %w", err)
	}
	if opts.Metric == "" {
		opts.Metric = textsim.MetricJaccard
	}
	if opts.Threshold == 0 && !opts.thresholdSet {
		opts.Threshold = 0.6
	}
	if !(opts.Threshold >= 0 && opts.Threshold <= 1) {
		return nil, fmt.Errorf("dedup: similarity threshold %v outside [0, 1]", opts.Threshold)
	}
	res := &Result{}

	if err := dedupAMD(db); err != nil {
		return nil, err
	}
	if err := dedupIntel(db, opts, res); err != nil {
		return nil, err
	}

	res.UniqueIntel = len(db.UniqueVendor(core.Intel))
	res.UniqueAMD = len(db.UniqueVendor(core.AMD))
	return res, nil
}

// dedupAMD keys AMD entries by their shared numeric identifier.
func dedupAMD(db *core.Database) error {
	for _, e := range db.VendorErrata(core.AMD) {
		if e.ID == "" {
			return fmt.Errorf("dedup: AMD erratum without ID in %s", e.DocKey)
		}
		e.Key = "A-" + e.ID
	}
	return nil
}

// dedupIntel clusters Intel entries by exact normalized title, then
// reviews similarity-ranked candidates with the oracle.
func dedupIntel(db *core.Database, opts Options, res *Result) error {
	entries := db.VendorErrata(core.Intel)
	if len(entries) == 0 {
		return nil
	}
	dsu := NewDSU(len(entries))

	// Stage 1: exact normalized-title clustering.
	res.ExactTitleClusters = clusterExactTitles(entries, dsu)

	// Stage 2: similarity-ranked review of remaining candidates. One
	// representative per cluster suffices, since merged entries share a
	// title.
	if opts.Oracle != nil {
		// Stage 1 merged every pair of entries with equal normalized
		// titles, so cluster representatives have pairwise-distinct
		// normalized titles and no identical-title pair can resurface
		// here.
		reps := clusterRepresentatives(dsu, len(entries))
		cands, err := exactCandidates(entries, reps, opts.Metric, opts.Threshold, opts.Parallelism)
		if err != nil {
			return err
		}
		for _, c := range cands {
			if opts.MaxReviews > 0 && len(res.Reviewed) >= opts.MaxReviews {
				break
			}
			if dsu.Find(c.i) == dsu.Find(c.j) {
				continue // already merged transitively
			}
			confirmed := opts.Oracle(entries[c.i], entries[c.j])
			res.Reviewed = append(res.Reviewed, CandidatePair{
				A: entries[c.i], B: entries[c.j], Score: c.score, Confirmed: confirmed,
			})
			if confirmed {
				dsu.Union(c.i, c.j)
				res.ConfirmedPairs++
			}
		}
	}

	// Key assignment: clusters ordered by their earliest occurrence
	// (document order, then sequence).
	assignIntelKeys(db, dsu, entries)
	return nil
}

// clusterExactTitles unions every pair of entries with equal normalized
// titles and returns the number of such clusters with more than one
// entry.
func clusterExactTitles(entries []*core.Erratum, dsu *DSU) int {
	byTitle := make(map[string][]int)
	for i, e := range entries {
		n := textsim.Normalize(e.Title)
		byTitle[n] = append(byTitle[n], i)
	}
	clusters := 0
	for _, idxs := range byTitle {
		for i := 1; i < len(idxs); i++ {
			dsu.Union(idxs[0], idxs[i])
		}
		if len(idxs) > 1 {
			clusters++
		}
	}
	return clusters
}

// candidate is a scored candidate pair of entry indices.
type candidate struct {
	i, j  int
	score float64
}

func sortCandidates(cands []candidate) {
	sort.SliceStable(cands, func(x, y int) bool {
		if cands[x].score != cands[y].score {
			return cands[x].score > cands[y].score
		}
		if cands[x].i != cands[y].i {
			return cands[x].i < cands[y].i
		}
		return cands[x].j < cands[y].j
	})
}

// exactCandidates scans all representative pairs (O(n^2)), sharded by
// row across the worker pool. The representatives' titles are prepared
// once by a textsim.Scorer, so each pair costs one kernel call. Per-row
// matches are merged in row order, so the pre-sort candidate sequence —
// and with sortCandidates' total (score, i, j) ordering, the final
// ranking — is identical to the sequential scan at every worker count.
func exactCandidates(entries []*core.Erratum, reps []int, metric textsim.Metric, threshold float64, workers int) ([]candidate, error) {
	titles := make([]string, len(reps))
	for a, i := range reps {
		titles[a] = entries[i].Title
	}
	scorer, err := textsim.NewScorer(metric, titles)
	if err != nil {
		return nil, fmt.Errorf("dedup: %w", err)
	}
	cands := parallel.Gather(len(reps), workers, func(a int) []candidate {
		var row []candidate
		for b := a + 1; b < len(reps); b++ {
			if s := scorer.Score(a, b); s >= threshold {
				row = append(row, candidate{i: reps[a], j: reps[b], score: s})
			}
		}
		return row
	})
	sortCandidates(cands)
	return cands, nil
}

// clusterRepresentatives returns one index per DSU cluster, choosing the
// smallest index.
func clusterRepresentatives(dsu *DSU, n int) []int {
	seen := make(map[int]int)
	var reps []int
	for i := 0; i < n; i++ {
		root := dsu.Find(i)
		if _, ok := seen[root]; !ok {
			seen[root] = i
			reps = append(reps, i)
		}
	}
	return reps
}

func assignIntelKeys(db *core.Database, dsu *DSU, entries []*core.Erratum) {
	order := make(map[string]int)
	for _, d := range db.VendorDocuments(core.Intel) {
		order[d.Key] = d.Order
	}
	type clusterInfo struct {
		root     int
		minOrder int
		minSeq   int
	}
	infos := make(map[int]*clusterInfo)
	for i, e := range entries {
		root := dsu.Find(i)
		ci, ok := infos[root]
		if !ok {
			infos[root] = &clusterInfo{root: root, minOrder: order[e.DocKey], minSeq: e.Seq}
			continue
		}
		o := order[e.DocKey]
		if o < ci.minOrder || (o == ci.minOrder && e.Seq < ci.minSeq) {
			ci.minOrder, ci.minSeq = o, e.Seq
		}
	}
	sorted := make([]*clusterInfo, 0, len(infos))
	for _, ci := range infos {
		sorted = append(sorted, ci)
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].minOrder != sorted[j].minOrder {
			return sorted[i].minOrder < sorted[j].minOrder
		}
		if sorted[i].minSeq != sorted[j].minSeq {
			return sorted[i].minSeq < sorted[j].minSeq
		}
		return sorted[i].root < sorted[j].root
	})
	keyOf := make(map[int]string, len(sorted))
	for i, ci := range sorted {
		keyOf[ci.root] = fmt.Sprintf("I-%04d", i+1)
	}
	for i, e := range entries {
		e.Key = keyOf[dsu.Find(i)]
	}
}

// DSU is a disjoint-set union (union-find) structure with path
// compression and union by size.
type DSU struct {
	parent []int
	size   []int
	sets   int
}

// NewDSU creates a DSU over n singleton elements.
func NewDSU(n int) *DSU {
	d := &DSU{parent: make([]int, n), size: make([]int, n), sets: n}
	for i := range d.parent {
		d.parent[i] = i
		d.size[i] = 1
	}
	return d
}

// Find returns the root of x's set.
func (d *DSU) Find(x int) int {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

// Union merges the sets of a and b; it reports whether a merge happened.
func (d *DSU) Union(a, b int) bool {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return false
	}
	if d.size[ra] < d.size[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	d.size[ra] += d.size[rb]
	d.sets--
	return true
}

// Sets returns the current number of disjoint sets.
func (d *DSU) Sets() int { return d.sets }

// SizeOf returns the size of x's set.
func (d *DSU) SizeOf(x int) int { return d.size[d.Find(x)] }
