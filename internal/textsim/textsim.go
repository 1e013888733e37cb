// Package textsim provides the text primitives RemembERR's duplicate
// detection relies on: title normalization, tokenization, and several
// string-similarity metrics (Jaccard, Sørensen-Dice, Levenshtein,
// TF-IDF cosine, n-gram shingles).
//
// The paper detects Intel cross-generation duplicates by (nearly)
// identical titles, then manually reviews remaining candidates sorted by
// decreasing title similarity. These metrics implement that ranking.
package textsim

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"unicode"

	"repro/internal/parallel"
)

// Normalize lower-cases s, strips punctuation, and collapses whitespace,
// so that titles differing only in minor phrasing normalize identically.
func Normalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	prevSpace := true
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
			prevSpace = false
		default:
			if !prevSpace {
				b.WriteByte(' ')
				prevSpace = true
			}
		}
	}
	return strings.TrimSpace(b.String())
}

// Tokens splits s into normalized word tokens.
func Tokens(s string) []string {
	n := Normalize(s)
	if n == "" {
		return nil
	}
	return strings.Fields(n)
}

// Jaccard returns the Jaccard similarity of the token sets of a and b
// in [0,1]. Two empty strings are considered identical (1).
func Jaccard(a, b string) float64 { return pairScore(MetricJaccard, a, b) }

// Dice returns the Sørensen-Dice coefficient of the token sets of a and
// b in [0,1].
func Dice(a, b string) float64 { return pairScore(MetricDice, a, b) }

// Levenshtein returns the edit distance between the normalized forms of
// a and b, counting insertions, deletions and substitutions as 1.
func Levenshtein(a, b string) int {
	return levenshteinRunes([]rune(Normalize(a)), []rune(Normalize(b)))
}

// levenshteinRunes is the edit-distance kernel over already-normalized
// rune slices, so that callers holding normalized text (a Scorer's
// prepared titles) pay for normalization exactly once.
func levenshteinRunes(ra, rb []rune) int {
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = minInt(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// LevenshteinSimilarity maps the edit distance to a similarity in [0,1]:
// 1 - dist/maxLen. Two empty strings are identical.
func LevenshteinSimilarity(a, b string) float64 { return pairScore(MetricLevenshtein, a, b) }

func minInt(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// Shingles returns the set of n-grams (as strings of n consecutive
// tokens joined by a space) of s. For fewer than n tokens, the whole
// token sequence is the single shingle.
func Shingles(s string, n int) map[string]struct{} {
	out := make(map[string]struct{})
	for _, sh := range shingles(Tokens(s), n) {
		out[sh] = struct{}{}
	}
	return out
}

// shingles lists the n-grams of toks, possibly with repeats; see
// Shingles.
func shingles(toks []string, n int) []string {
	if len(toks) == 0 || n <= 0 {
		return nil
	}
	if len(toks) < n {
		return []string{strings.Join(toks, " ")}
	}
	out := make([]string, 0, len(toks)-n+1)
	for i := 0; i+n <= len(toks); i++ {
		out = append(out, strings.Join(toks[i:i+n], " "))
	}
	return out
}

// ShingleJaccard returns the Jaccard similarity of the n-gram shingle
// sets of a and b.
func ShingleJaccard(a, b string, n int) float64 {
	sets := internSets([]string{a, b}, func(s string) []string { return shingles(Tokens(s), n) })
	return jaccardIDs(sets[0], sets[1])
}

// Metric names a similarity function usable for duplicate ranking.
type Metric string

// Supported similarity metrics.
const (
	MetricJaccard     Metric = "jaccard"
	MetricDice        Metric = "dice"
	MetricLevenshtein Metric = "levenshtein"
	MetricShingle2    Metric = "shingle2"
)

// Validate reports an error for a metric NewScorer does not know. The
// empty metric is valid and selects Jaccard.
func (m Metric) Validate() error {
	switch m {
	case "", MetricJaccard, MetricDice, MetricLevenshtein, MetricShingle2:
		return nil
	}
	return fmt.Errorf("textsim: unknown similarity metric %q", string(m))
}

// Similarity computes the named metric on a pair of strings. It
// returns an error for a metric that Validate rejects.
func Similarity(m Metric, a, b string) (float64, error) {
	s, err := NewScorer(m, []string{a, b})
	if err != nil {
		return 0, err
	}
	return s.Score(0, 1), nil
}

// pairScore is Similarity for the package's own metric constants, which
// cannot fail.
func pairScore(m Metric, a, b string) float64 {
	s, _ := Similarity(m, a, b)
	return s
}

// Scorer scores pairs of a fixed text collection under one metric. It
// prepares every text once — normalized, tokenized and interned into a
// sorted set of integer IDs (or normalized runes for Levenshtein) — so
// that scoring a pair costs one merge or one edit-distance pass instead
// of re-tokenizing both texts. Scores are bit-identical to the string
// functions, which are wrappers over the same kernels. A Scorer is
// immutable after construction and safe for concurrent use.
type Scorer struct {
	metric Metric
	sets   [][]uint32 // Jaccard, Dice, Shingle2: sorted distinct IDs
	runes  [][]rune   // Levenshtein: normalized text
}

// NewScorer prepares texts for scoring under metric m (the empty metric
// selects Jaccard). It returns an error for an unknown metric.
func NewScorer(m Metric, texts []string) (*Scorer, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if m == "" {
		m = MetricJaccard
	}
	s := &Scorer{metric: m}
	switch m {
	case MetricLevenshtein:
		s.runes = make([][]rune, len(texts))
		for i, t := range texts {
			s.runes[i] = []rune(Normalize(t))
		}
	case MetricShingle2:
		s.sets = internSets(texts, func(t string) []string { return shingles(Tokens(t), 2) })
	default:
		s.sets = internSets(texts, Tokens)
	}
	return s, nil
}

// Score returns the similarity of texts i and j in [0,1].
func (s *Scorer) Score(i, j int) float64 {
	switch s.metric {
	case MetricLevenshtein:
		return levenshteinSimilarity(s.runes[i], s.runes[j])
	case MetricDice:
		return diceIDs(s.sets[i], s.sets[j])
	default:
		return jaccardIDs(s.sets[i], s.sets[j])
	}
}

// internSets maps every text to the sorted, deduplicated IDs of its
// items, interning items into one dictionary shared by all texts.
func internSets(texts []string, items func(string) []string) [][]uint32 {
	dict := make(map[string]uint32)
	sets := make([][]uint32, len(texts))
	for i, t := range texts {
		var ids []uint32
		for _, it := range items(t) {
			id, ok := dict[it]
			if !ok {
				id = uint32(len(dict))
				dict[it] = id
			}
			ids = append(ids, id)
		}
		slices.Sort(ids)
		sets[i] = slices.Compact(ids)
	}
	return sets
}

// intersectIDs counts the IDs common to two sorted, distinct ID sets.
func intersectIDs(a, b []uint32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// jaccardIDs is |a∩b| / |a∪b|; two empty sets are identical.
func jaccardIDs(a, b []uint32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := intersectIDs(a, b)
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// diceIDs is 2|a∩b| / (|a|+|b|); two empty sets are identical.
func diceIDs(a, b []uint32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	return 2 * float64(intersectIDs(a, b)) / float64(len(a)+len(b))
}

// levenshteinSimilarity is 1 - dist/maxLen over normalized runes; two
// empty texts are identical.
func levenshteinSimilarity(ra, rb []rune) float64 {
	maxLen := max(len(ra), len(rb))
	if maxLen == 0 {
		return 1
	}
	return 1 - float64(levenshteinRunes(ra, rb))/float64(maxLen)
}

// Corpus supports TF-IDF cosine similarity over a document collection.
// Build one with NewCorpus; it is immutable afterwards.
type Corpus struct {
	df     map[string]int
	nDocs  int
	vecs   []map[string]float64
	titles []string
}

// NewCorpus builds a TF-IDF model over the given texts using all
// available CPUs; see NewCorpusParallel for the worker knob.
func NewCorpus(texts []string) *Corpus {
	return NewCorpusParallel(texts, 0)
}

// NewCorpusParallel builds a TF-IDF model over the given texts with a
// bounded worker pool (0 = GOMAXPROCS, 1 = sequential). Per-document
// tokenization and vectorization are embarrassingly parallel; the
// document-frequency accumulation between them is a cheap sequential
// reduction over per-document sets, so the model is identical at every
// worker count.
func NewCorpusParallel(texts []string, workers int) *Corpus {
	c := &Corpus{
		df:     make(map[string]int),
		nDocs:  len(texts),
		titles: append([]string(nil), texts...),
	}
	tfs, _ := parallel.Map(len(texts), workers, func(i int) (map[string]int, error) {
		tf := make(map[string]int)
		for _, tok := range Tokens(texts[i]) {
			tf[tok]++
		}
		return tf, nil
	})
	for _, tf := range tfs {
		for tok := range tf {
			c.df[tok]++
		}
	}
	c.vecs = make([]map[string]float64, len(texts))
	_ = parallel.Do(len(texts), workers, func(i int) error {
		tf := tfs[i]
		// Accumulate the norm in sorted token order: float addition is
		// not associative, and map iteration order is randomized per
		// run, so a fixed summation order is what makes the vectors
		// reproducible run to run.
		toks := make([]string, 0, len(tf))
		for tok := range tf {
			toks = append(toks, tok)
		}
		sort.Strings(toks)
		vec := make(map[string]float64, len(tf))
		var norm float64
		for _, tok := range toks {
			w := float64(tf[tok]) * c.idf(tok)
			vec[tok] = w
			norm += w * w
		}
		if norm > 0 {
			norm = math.Sqrt(norm)
			for tok := range vec {
				vec[tok] /= norm
			}
		}
		c.vecs[i] = vec
		return nil
	})
	return c
}

func (c *Corpus) idf(tok string) float64 {
	df := c.df[tok]
	if df == 0 {
		df = 1
	}
	return math.Log(float64(c.nDocs+1)/float64(df)) + 1
}

// Len returns the number of documents in the corpus.
func (c *Corpus) Len() int { return c.nDocs }

// Cosine returns the TF-IDF cosine similarity between documents i and j.
func (c *Corpus) Cosine(i, j int) float64 {
	vi, vj := c.vecs[i], c.vecs[j]
	if len(vi) > len(vj) {
		vi, vj = vj, vi
	}
	// Sum the dot product in sorted token order so the score is
	// reproducible run to run (see NewCorpusParallel).
	toks := make([]string, 0, len(vi))
	for tok := range vi {
		if _, ok := vj[tok]; ok {
			toks = append(toks, tok)
		}
	}
	sort.Strings(toks)
	var dot float64
	for _, tok := range toks {
		dot += vi[tok] * vj[tok]
	}
	if dot > 1 {
		dot = 1 // guard against rounding
	}
	return dot
}

// Pair is a scored candidate pair of corpus documents.
type Pair struct {
	I, J  int
	Score float64
}

// RankPairs returns all pairs (i<j) with similarity of at least min,
// sorted by decreasing score (stable for equal scores by (I,J)). This
// mirrors the paper's manual review of candidate duplicates "sorted by
// decreasing title similarity". It uses all available CPUs; see
// RankPairsParallel for the worker knob.
func (c *Corpus) RankPairs(min float64) []Pair {
	return c.RankPairsParallel(min, 0)
}

// RankPairsParallel is RankPairs with a bounded worker pool (0 =
// GOMAXPROCS, 1 = sequential). The O(n^2) scan is sharded by row;
// per-row matches are merged in row order, so the pre-sort order — and
// with the total (score, I, J) ordering, the final ranking — is
// identical to the sequential scan at every worker count.
func (c *Corpus) RankPairsParallel(min float64, workers int) []Pair {
	out := parallel.Gather(c.nDocs, workers, func(i int) []Pair {
		var row []Pair
		for j := i + 1; j < c.nDocs; j++ {
			if s := c.Cosine(i, j); s >= min {
				row = append(row, Pair{I: i, J: j, Score: s})
			}
		}
		return row
	})
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		if out[a].I != out[b].I {
			return out[a].I < out[b].I
		}
		return out[a].J < out[b].J
	})
	return out
}
