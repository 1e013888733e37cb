package textsim_test

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/textsim"
	_ "repro/plugins/defaults"
)

// The oracles below are the string implementations the prepared Scorer
// replaced: every call re-normalizes and re-tokenizes both texts into
// fresh maps. They stay here as the reference the kernels must match
// bit for bit.

func oracleTokenSet(s string) map[string]struct{} {
	set := make(map[string]struct{})
	for _, t := range textsim.Tokens(s) {
		set[t] = struct{}{}
	}
	return set
}

func oracleSetJaccard(sa, sb map[string]struct{}) float64 {
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for t := range sa {
		if _, ok := sb[t]; ok {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

func oracleJaccard(a, b string) float64 {
	return oracleSetJaccard(oracleTokenSet(a), oracleTokenSet(b))
}

func oracleDice(a, b string) float64 {
	sa, sb := oracleTokenSet(a), oracleTokenSet(b)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for t := range sa {
		if _, ok := sb[t]; ok {
			inter++
		}
	}
	den := len(sa) + len(sb)
	if den == 0 {
		return 1
	}
	return 2 * float64(inter) / float64(den)
}

func oracleShingles(s string, n int) map[string]struct{} {
	toks := textsim.Tokens(s)
	out := make(map[string]struct{})
	if len(toks) == 0 || n <= 0 {
		return out
	}
	if len(toks) < n {
		out[strings.Join(toks, " ")] = struct{}{}
		return out
	}
	for i := 0; i+n <= len(toks); i++ {
		out[strings.Join(toks[i:i+n], " ")] = struct{}{}
	}
	return out
}

func oracleShingle2(a, b string) float64 {
	return oracleSetJaccard(oracleShingles(a, 2), oracleShingles(b, 2))
}

// oracleLevenshtein fills the full edit-distance matrix, independently
// of the two-row kernel the Scorer uses.
func oracleLevenshtein(a, b string) float64 {
	ra, rb := []rune(textsim.Normalize(a)), []rune(textsim.Normalize(b))
	maxLen := max(len(ra), len(rb))
	if maxLen == 0 {
		return 1
	}
	cells := make([]int, (len(ra)+1)*(len(rb)+1))
	d := make([][]int, len(ra)+1)
	for i := range d {
		d[i] = cells[i*(len(rb)+1) : (i+1)*(len(rb)+1)]
		d[i][0] = i
	}
	for j := range d[0] {
		d[0][j] = j
	}
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			d[i][j] = min(d[i-1][j]+1, d[i][j-1]+1, d[i-1][j-1]+cost)
		}
	}
	return 1 - float64(d[len(ra)][len(rb)])/float64(maxLen)
}

var oracles = []struct {
	metric textsim.Metric
	score  func(a, b string) float64
	str    func(a, b string) float64
}{
	{textsim.MetricJaccard, oracleJaccard, textsim.Jaccard},
	{textsim.MetricDice, oracleDice, textsim.Dice},
	{textsim.MetricLevenshtein, oracleLevenshtein, textsim.LevenshteinSimilarity},
	{textsim.MetricShingle2, oracleShingle2, func(a, b string) float64 { return textsim.ShingleJaccard(a, b, 2) }},
}

// checkPairs compares the prepared score, the string wrapper and the
// oracle with == on every listed pair of texts, under every metric.
func checkPairs(t *testing.T, texts []string, pairs [][2]int) {
	t.Helper()
	for _, o := range oracles {
		s, err := textsim.NewScorer(o.metric, texts)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			a, b := texts[p[0]], texts[p[1]]
			want := o.score(a, b)
			if got := s.Score(p[0], p[1]); got != want {
				t.Fatalf("%s Score(%q, %q) = %v, oracle %v", o.metric, a, b, got, want)
			}
			if got := o.str(a, b); got != want {
				t.Fatalf("%s string form (%q, %q) = %v, oracle %v", o.metric, a, b, got, want)
			}
		}
	}
}

// TestScorerMatchesStringMetrics pins the prepared kernels to the
// replaced string implementations: the dedup ranking, and with it the
// built database's bytes, depends on every score being bit-identical.
func TestScorerMatchesStringMetrics(t *testing.T) {
	t.Run("edge-cases", func(t *testing.T) {
		texts := []string{
			"",
			"!!! ... ---",
			"processor",
			"Processor!",
			"hang hang hang",
			"hang",
			"a b a b a",
			"a b",
			"Ärger in der Straße: ÉCOLE ǅ",
			"ärger in der strasse école ǆ",
			"counter ٣ may ² report ½ wrong values",
			"counter 3 may report wrong values",
			"  Processor   May Hang During Power State Transitions  ",
			"Processor Might Hang During Power State Transitions Under Load",
		}
		var pairs [][2]int
		for i := range texts {
			for j := range texts {
				pairs = append(pairs, [2]int{i, j})
			}
		}
		checkPairs(t, texts, pairs)
	})

	// Every Intel title of each equivalence seed, sorted so that
	// neighbours share prefixes: each title is paired with its next
	// neighbour (the high-similarity pairs the dedup ranking surfaces)
	// and with a random partner.
	for seed := int64(1); seed <= 6; seed++ {
		gt, err := corpus.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		var titles []string
		for _, e := range gt.DB.VendorErrata(core.Intel) {
			titles = append(titles, e.Title)
		}
		sort.Strings(titles)
		rng := rand.New(rand.NewSource(seed))
		var pairs [][2]int
		for i := range titles {
			if i+1 < len(titles) {
				pairs = append(pairs, [2]int{i, i + 1})
			}
			pairs = append(pairs, [2]int{i, rng.Intn(len(titles))})
		}
		checkPairs(t, titles, pairs)
	}
}

// FuzzScorerEquivalence checks prepared scoring against the oracles on
// arbitrary string pairs, in both argument orders.
func FuzzScorerEquivalence(f *testing.F) {
	f.Add("Processor May Hang", "processor might hang")
	f.Add("", "!!!")
	f.Add("a b a", "b a b")
	f.Add("Straße ٣", "strasse 3")
	f.Fuzz(func(t *testing.T, a, b string) {
		checkPairs(t, []string{a, b}, [][2]int{{0, 1}, {1, 0}, {0, 0}})
	})
}
