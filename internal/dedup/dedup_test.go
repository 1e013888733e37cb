package dedup

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/specdoc"
	"repro/internal/textsim"
	corpusprofile "repro/plugins/corpusprofile/intelamd"
)

func buildSmallDB(t *testing.T) *core.Database {
	t.Helper()
	db := core.NewDatabase()
	docs := []*core.Document{
		{
			Key: "intel-01d", Vendor: core.Intel, Label: "1 (D)", Order: 0, GenIndex: 1,
			Errata: []*core.Erratum{
				{DocKey: "intel-01d", ID: "AAJ001", Seq: 1, Title: "Processor May Hang During Power State Transitions"},
				{DocKey: "intel-01d", ID: "AAJ002", Seq: 2, Title: "Counter May Report Wrong Values"},
			},
		},
		{
			Key: "intel-02d", Vendor: core.Intel, Label: "2 (D)", Order: 2, GenIndex: 2,
			Errata: []*core.Erratum{
				// Exact duplicate of AAJ001 (modulo case/punctuation).
				{DocKey: "intel-02d", ID: "BJ001", Seq: 1, Title: "Processor may hang during power state transitions."},
				// Near-duplicate of AAJ002, needs manual confirmation.
				{DocKey: "intel-02d", ID: "BJ002", Seq: 2, Title: "Counter Might Report Wrong Values"},
				// Unrelated.
				{DocKey: "intel-02d", ID: "BJ003", Seq: 3, Title: "USB Controller Drops Packets"},
			},
		},
		{
			Key: "amd-17h-00", Vendor: core.AMD, Label: "17h 00-0F", Order: 0,
			Errata: []*core.Erratum{
				{DocKey: "amd-17h-00", ID: "1001", Seq: 1, Title: "Hang Under Contention"},
				{DocKey: "amd-17h-00", ID: "1002", Seq: 2, Title: "Wrong IBS Data"},
			},
		},
		{
			Key: "amd-19h-00", Vendor: core.AMD, Label: "19h 00-0F", Order: 1,
			Errata: []*core.Erratum{
				{DocKey: "amd-19h-00", ID: "1001", Seq: 1, Title: "Hang Under Contention"},
				{DocKey: "amd-19h-00", ID: "1003", Seq: 2, Title: "Fresh Bug"},
			},
		},
	}
	for _, d := range docs {
		if err := db.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestDedupAMDByID(t *testing.T) {
	db := buildSmallDB(t)
	res, err := Deduplicate(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.UniqueAMD != 3 {
		t.Errorf("AMD unique = %d, want 3", res.UniqueAMD)
	}
	a := db.Docs["amd-17h-00"].Erratum("1001")
	b := db.Docs["amd-19h-00"].Erratum("1001")
	if a.Key != b.Key || a.Key != "A-1001" {
		t.Errorf("AMD shared-ID keys = (%q,%q)", a.Key, b.Key)
	}
}

func TestDedupIntelExactTitle(t *testing.T) {
	db := buildSmallDB(t)
	res, err := Deduplicate(db, Options{}) // no oracle: exact titles only
	if err != nil {
		t.Fatal(err)
	}
	// 5 Intel entries, one exact-title pair -> 4 clusters.
	if res.UniqueIntel != 4 {
		t.Errorf("Intel unique = %d, want 4", res.UniqueIntel)
	}
	a := db.Docs["intel-01d"].Erratum("AAJ001")
	b := db.Docs["intel-02d"].Erratum("BJ001")
	if a.Key == "" || a.Key != b.Key {
		t.Errorf("exact-title pair keys = (%q,%q)", a.Key, b.Key)
	}
	// The near-duplicate must NOT be merged without an oracle.
	c := db.Docs["intel-01d"].Erratum("AAJ002")
	d := db.Docs["intel-02d"].Erratum("BJ002")
	if c.Key == d.Key {
		t.Error("near-duplicate merged without oracle")
	}
}

func TestDedupIntelWithOracle(t *testing.T) {
	db := buildSmallDB(t)
	oracle := func(a, b *core.Erratum) bool {
		// Confirm only the Counter pair.
		return (a.ID == "AAJ002" && b.ID == "BJ002") || (a.ID == "BJ002" && b.ID == "AAJ002")
	}
	res, err := Deduplicate(db, Options{Oracle: oracle, Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.UniqueIntel != 3 {
		t.Errorf("Intel unique = %d, want 3", res.UniqueIntel)
	}
	if res.ConfirmedPairs != 1 {
		t.Errorf("confirmed pairs = %d, want 1", res.ConfirmedPairs)
	}
	c := db.Docs["intel-01d"].Erratum("AAJ002")
	d := db.Docs["intel-02d"].Erratum("BJ002")
	if c.Key != d.Key {
		t.Error("oracle-confirmed pair not merged")
	}
	// Representative key comes from the earliest document.
	if c.Key != d.Key || c.Key == "" {
		t.Errorf("keys = (%q,%q)", c.Key, d.Key)
	}
}

func TestKeyStability(t *testing.T) {
	db1 := buildSmallDB(t)
	db2 := buildSmallDB(t)
	if _, err := Deduplicate(db1, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Deduplicate(db2, Options{}); err != nil {
		t.Fatal(err)
	}
	e1 := db1.Errata()
	e2 := db2.Errata()
	for i := range e1 {
		if e1[i].Key != e2[i].Key {
			t.Fatalf("key instability at %s: %q vs %q", e1[i].FullID(), e1[i].Key, e2[i].Key)
		}
	}
}

// TestFullCorpusDedup runs the complete pipeline segment: generate ->
// render -> parse -> deduplicate, and checks the paper's unique counts.
func TestFullCorpusDedup(t *testing.T) {
	gt, err := corpus.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	texts := specdoc.WriteAll(gt.DB, specdoc.WriteOptions{})
	db, _, err := specdoc.ParseAll(texts)
	if err != nil {
		t.Fatal(err)
	}

	// Ground-truth oracle: the simulated manual inspection. Entries are
	// identified by document key and sequence.
	truth := make(map[string]string)
	for _, e := range gt.DB.Errata() {
		truth[corpus.EntryRef(e)] = e.Key
	}
	oracle := func(a, b *core.Erratum) bool {
		return truth[corpus.EntryRef(a)] == truth[corpus.EntryRef(b)] &&
			truth[corpus.EntryRef(a)] != ""
	}

	res, err := Deduplicate(db, Options{Oracle: oracle})
	if err != nil {
		t.Fatal(err)
	}
	if res.UniqueIntel != corpusprofile.TargetIntelUnique {
		t.Errorf("Intel unique = %d, want %d", res.UniqueIntel, corpusprofile.TargetIntelUnique)
	}
	if res.UniqueAMD != corpusprofile.TargetAMDUnique {
		t.Errorf("AMD unique = %d, want %d", res.UniqueAMD, corpusprofile.TargetAMDUnique)
	}
	if res.ConfirmedPairs != 29 {
		t.Errorf("confirmed pairs = %d, want 29 (the paper's manual count)", res.ConfirmedPairs)
	}

	// Recovered clustering must match the ground truth exactly: two
	// entries share a recovered key iff they share a lineage.
	keyToLineage := make(map[string]string)
	for _, e := range db.Errata() {
		lin := truth[corpus.EntryRef(e)]
		if prev, ok := keyToLineage[e.Key]; ok && prev != lin {
			t.Fatalf("cluster %s mixes lineages %s and %s", e.Key, prev, lin)
		}
		keyToLineage[e.Key] = lin
	}
	lineageToKey := make(map[string]string)
	for _, e := range db.Errata() {
		lin := truth[corpus.EntryRef(e)]
		if prev, ok := lineageToKey[lin]; ok && prev != e.Key {
			t.Fatalf("lineage %s split into clusters %s and %s", lin, prev, e.Key)
		}
		lineageToKey[lin] = e.Key
	}
}

func TestDSUBasics(t *testing.T) {
	d := NewDSU(5)
	if d.Sets() != 5 {
		t.Fatalf("initial sets = %d", d.Sets())
	}
	if !d.Union(0, 1) || !d.Union(2, 3) || !d.Union(1, 2) {
		t.Fatal("unions failed")
	}
	if d.Union(0, 3) {
		t.Error("union of same set returned true")
	}
	if d.Sets() != 2 {
		t.Errorf("sets = %d, want 2", d.Sets())
	}
	if d.SizeOf(1) != 4 || d.SizeOf(4) != 1 {
		t.Errorf("sizes = (%d,%d)", d.SizeOf(1), d.SizeOf(4))
	}
	if d.Find(0) != d.Find(3) || d.Find(0) == d.Find(4) {
		t.Error("find results inconsistent")
	}
}

// Property: after any sequence of unions, Find is consistent (two
// elements united transitively share a root) and set count plus total
// merges equals n.
func TestPropertyDSU(t *testing.T) {
	f := func(pairs []uint16) bool {
		const n = 64
		d := NewDSU(n)
		merges := 0
		type pr struct{ a, b int }
		var applied []pr
		for _, p := range pairs {
			a, b := int(p%n), int((p/n)%n)
			if d.Union(a, b) {
				merges++
			}
			applied = append(applied, pr{a, b})
		}
		if d.Sets()+merges != n {
			return false
		}
		for _, p := range applied {
			if d.Find(p.a) != d.Find(p.b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSimilarityMetricsOptions(t *testing.T) {
	db := buildSmallDB(t)
	for _, m := range []textsim.Metric{textsim.MetricJaccard, textsim.MetricDice, textsim.MetricLevenshtein} {
		db2 := buildSmallDB(t)
		if _, err := Deduplicate(db2, Options{Metric: m}); err != nil {
			t.Errorf("metric %s: %v", m, err)
		}
	}
	_ = db
}

// TestExplicitZeroThreshold is the regression test for the zero-value
// option footgun: a caller explicitly asking for threshold 0 must get
// every candidate pair reviewed, not the silent 0.6 default.
func TestExplicitZeroThreshold(t *testing.T) {
	db := buildSmallDB(t)
	calls := 0
	oracle := func(a, b *core.Erratum) bool { calls++; return false }
	opts := Options{Oracle: oracle}
	opts.SetThreshold(0)
	res, err := Deduplicate(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Stage 1 merges the exact-title pair, leaving 4 Intel
	// representatives; threshold 0 must surface all C(4,2) = 6 pairs.
	if len(res.Reviewed) != 6 || calls != 6 {
		t.Errorf("reviews = %d, oracle calls = %d, want 6 each (every candidate pair)", len(res.Reviewed), calls)
	}

	// The plain zero value must keep selecting the 0.6 default: the
	// disjoint-title pairs fall below it and only the near-duplicate
	// Counter pair is surfaced.
	db2 := buildSmallDB(t)
	calls = 0
	res2, err := Deduplicate(db2, Options{Oracle: oracle})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Reviewed) >= 6 {
		t.Errorf("zero-value Threshold reviewed %d pairs; default 0.6 no longer applied", len(res2.Reviewed))
	}
	for _, p := range res2.Reviewed {
		if p.Score < 0.6 {
			t.Errorf("zero-value Threshold surfaced pair below default threshold: %v", p.Score)
		}
	}
}

func TestMaxReviews(t *testing.T) {
	db := buildSmallDB(t)
	calls := 0
	oracle := func(a, b *core.Erratum) bool { calls++; return false }
	res, err := Deduplicate(db, Options{Oracle: oracle, Threshold: 0.1, MaxReviews: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reviewed) != 1 || calls != 1 {
		t.Errorf("reviews = %d, oracle calls = %d, want 1 each", len(res.Reviewed), calls)
	}
}

// TestMaxReviewsSkipsDontCount pins two properties of the stage-2
// review loop: MaxReviews caps *oracle consultations*, and pairs
// skipped because they were already merged transitively do not consume
// the cap.
//
// Four entries with pairwise-equal similarity score review in index
// order: (A,B), (A,C), (A,D), (B,C), (B,D), (C,D). The oracle confirms
// (A,B) and (A,C), which merges {A,B,C}; (B,C) is then skipped
// transitively without consulting the oracle. With MaxReviews = 4 the
// loop must still reach (B,D) — the skip is free — for exactly 4
// consultations.
func TestMaxReviewsSkipsDontCount(t *testing.T) {
	db := core.NewDatabase()
	// Eight shared tokens plus one unique token per title: every pair
	// has Jaccard 8/10 = 0.8 and a distinct normalized title.
	common := "alpha beta gamma delta epsilon zeta eta theta"
	doc := &core.Document{
		Key: "intel-01d", Vendor: core.Intel, Label: "1 (D)", Order: 0, GenIndex: 1,
		Errata: []*core.Erratum{
			{DocKey: "intel-01d", ID: "AAJ001", Seq: 1, Title: common + " one"},
			{DocKey: "intel-01d", ID: "AAJ002", Seq: 2, Title: common + " two"},
			{DocKey: "intel-01d", ID: "AAJ003", Seq: 3, Title: common + " three"},
			{DocKey: "intel-01d", ID: "AAJ004", Seq: 4, Title: common + " four"},
		},
	}
	if err := db.Add(doc); err != nil {
		t.Fatal(err)
	}
	calls := 0
	oracle := func(a, b *core.Erratum) bool {
		calls++
		pair := a.ID + "/" + b.ID
		return pair == "AAJ001/AAJ002" || pair == "AAJ001/AAJ003"
	}
	res, err := Deduplicate(db, Options{Oracle: oracle, Threshold: 0.7, MaxReviews: 4})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 || len(res.Reviewed) != 4 {
		t.Fatalf("oracle calls = %d, reviews = %d, want 4 each", calls, len(res.Reviewed))
	}
	last := res.Reviewed[3]
	if last.A.ID != "AAJ002" || last.B.ID != "AAJ004" {
		t.Errorf("4th review = (%s,%s), want (AAJ002,AAJ004): the transitive skip of (AAJ002,AAJ003) must not consume the cap",
			last.A.ID, last.B.ID)
	}
	if res.ConfirmedPairs != 2 {
		t.Errorf("confirmed = %d, want 2", res.ConfirmedPairs)
	}
}

// TestRepresentativesHaveDistinctNorms documents why the candidate
// generators need no identical-normalized-title guard: stage 1 unions
// every pair of entries with equal normalized titles, so the cluster
// representatives fed to stage 2 always carry pairwise-distinct
// normalized titles.
func TestRepresentativesHaveDistinctNorms(t *testing.T) {
	titles := []string{
		"Processor May Hang",
		"processor MAY hang!!", // same normalized title as 0
		"Counter Reports Wrong Values",
		"counter reports wrong values.", // same normalized title as 2
		"USB Controller Drops Packets",
	}
	dsu := NewDSU(len(titles))
	byTitle := make(map[string][]int)
	norms := make([]string, len(titles))
	for i, title := range titles {
		n := textsim.Normalize(title)
		norms[i] = n
		byTitle[n] = append(byTitle[n], i)
	}
	for _, idxs := range byTitle {
		for i := 1; i < len(idxs); i++ {
			dsu.Union(idxs[0], idxs[i])
		}
	}
	reps := clusterRepresentatives(dsu, len(titles))
	if len(reps) != 3 {
		t.Fatalf("representatives = %d, want 3", len(reps))
	}
	seen := make(map[string]int)
	for _, r := range reps {
		if prev, dup := seen[norms[r]]; dup {
			t.Errorf("representatives %d and %d share normalized title %q", prev, r, norms[r])
		}
		seen[norms[r]] = r
	}
}

// corpusDB parses the rendered documents of corpus seed and returns the
// database with a ground-truth oracle: the simulated manual inspection
// confirms a pair iff both entries share a lineage.
func corpusDB(tb testing.TB, seed int64) (*core.Database, func(a, b *core.Erratum) bool) {
	tb.Helper()
	gt, err := corpus.Generate(seed)
	if err != nil {
		tb.Fatal(err)
	}
	db, _, err := specdoc.ParseAll(specdoc.WriteAll(gt.DB, specdoc.WriteOptions{}))
	if err != nil {
		tb.Fatal(err)
	}
	truth := make(map[string]string)
	for _, e := range gt.DB.Errata() {
		truth[corpus.EntryRef(e)] = e.Key
	}
	return db, func(a, b *core.Erratum) bool {
		return truth[corpus.EntryRef(a)] != "" && truth[corpus.EntryRef(a)] == truth[corpus.EntryRef(b)]
	}
}

// referenceReview is the stage-2 review over a plain sequential scan
// that scores every representative pair from the title strings.
func referenceReview(t *testing.T, db *core.Database, metric textsim.Metric, threshold float64, oracle func(a, b *core.Erratum) bool) []CandidatePair {
	t.Helper()
	entries := db.VendorErrata(core.Intel)
	dsu := NewDSU(len(entries))
	clusterExactTitles(entries, dsu)
	reps := clusterRepresentatives(dsu, len(entries))
	var cands []candidate
	for a, i := range reps {
		for _, j := range reps[a+1:] {
			s, err := textsim.Similarity(metric, entries[i].Title, entries[j].Title)
			if err != nil {
				t.Fatal(err)
			}
			if s >= threshold {
				cands = append(cands, candidate{i: i, j: j, score: s})
			}
		}
	}
	sortCandidates(cands)
	var reviewed []CandidatePair
	for _, c := range cands {
		if dsu.Find(c.i) == dsu.Find(c.j) {
			continue
		}
		confirmed := oracle(entries[c.i], entries[c.j])
		reviewed = append(reviewed, CandidatePair{A: entries[c.i], B: entries[c.j], Score: c.score, Confirmed: confirmed})
		if confirmed {
			dsu.Union(c.i, c.j)
		}
	}
	return reviewed
}

// TestReviewedMatchesStringScan pins prepared candidate scoring to the
// string-pair scan it replaced: the reviewed pairs, their scores and
// their review order are identical for every metric, at thresholds 0
// and 0.6 and at 1 and 8 workers. The database is the corpus's last
// three Intel generations, which keeps the threshold-0 review (every
// representative pair, ~16k) small.
func TestReviewedMatchesStringScan(t *testing.T) {
	full, oracle := corpusDB(t, 3)
	db := core.NewDatabase()
	for _, key := range []string{"intel-10", "intel-11", "intel-12"} {
		if err := db.Add(full.Docs[key]); err != nil {
			t.Fatal(err)
		}
	}
	for _, metric := range []textsim.Metric{textsim.MetricJaccard, textsim.MetricDice, textsim.MetricLevenshtein, textsim.MetricShingle2} {
		for _, threshold := range []float64{0, 0.6} {
			want := referenceReview(t, db, metric, threshold, oracle)
			if len(want) == 0 {
				t.Fatalf("%s@%v: reference reviewed no pairs", metric, threshold)
			}
			for _, workers := range []int{1, 8} {
				opts := Options{Metric: metric, Oracle: oracle, Parallelism: workers}
				opts.SetThreshold(threshold)
				res, err := Deduplicate(db, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Reviewed) != len(want) {
					t.Fatalf("%s@%v workers=%d: reviewed %d pairs, reference %d", metric, threshold, workers, len(res.Reviewed), len(want))
				}
				for k, got := range res.Reviewed {
					if got != want[k] {
						t.Fatalf("%s@%v workers=%d: review %d = (%s,%s,%v,%v), reference (%s,%s,%v,%v)",
							metric, threshold, workers, k, got.A.FullID(), got.B.FullID(), got.Score, got.Confirmed,
							want[k].A.FullID(), want[k].B.FullID(), want[k].Score, want[k].Confirmed)
					}
				}
			}
		}
	}
}

// TestUnknownMetric is the regression test for the silent Jaccard
// fallback: a misspelled metric must fail, with or without an oracle,
// instead of building with Jaccard scores.
func TestUnknownMetric(t *testing.T) {
	for _, oracle := range []func(a, b *core.Erratum) bool{nil, func(a, b *core.Erratum) bool { return false }} {
		if _, err := Deduplicate(buildSmallDB(t), Options{Metric: "jacard", Oracle: oracle}); err == nil {
			t.Error("Deduplicate accepted an unknown metric")
		}
	}
	if _, err := Deduplicate(buildSmallDB(t), Options{Metric: ""}); err != nil {
		t.Errorf("empty metric: %v", err)
	}
}

// TestThresholdValidation: a NaN or out-of-range threshold must fail
// instead of silently reviewing no pair (NaN compares false to every
// score), while both ends of [0, 1] stay valid.
func TestThresholdValidation(t *testing.T) {
	for _, bad := range []float64{math.NaN(), -0.1, 1.5, math.Inf(1)} {
		opts := Options{}
		opts.SetThreshold(bad)
		if _, err := Deduplicate(buildSmallDB(t), opts); err == nil {
			t.Errorf("Deduplicate accepted threshold %v", bad)
		}
	}
	for _, ok := range []float64{0, 1} {
		opts := Options{}
		opts.SetThreshold(ok)
		if _, err := Deduplicate(buildSmallDB(t), opts); err != nil {
			t.Errorf("threshold %v: %v", ok, err)
		}
	}
}

// BenchmarkExactCandidates measures stage-2 candidate generation —
// preparing the representatives' titles and scoring every pair — over
// the full corpus's Intel cluster representatives.
func BenchmarkExactCandidates(b *testing.B) {
	db, _ := corpusDB(b, 1)
	entries := db.VendorErrata(core.Intel)
	dsu := NewDSU(len(entries))
	clusterExactTitles(entries, dsu)
	reps := clusterRepresentatives(dsu, len(entries))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands, err := exactCandidates(entries, reps, textsim.MetricJaccard, 0.6, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(cands)), "candidates")
	}
}
