package textsim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"X87 FDP Value May be Saved Incorrectly", "x87 fdp value may be saved incorrectly"},
		{"  Hello,   World!! ", "hello world"},
		{"(A/B) c-d", "a b c d"},
		{"", ""},
		{"!!!", ""},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTokens(t *testing.T) {
	got := Tokens("The CPU, may hang!")
	want := []string{"the", "cpu", "may", "hang"}
	if len(got) != len(want) {
		t.Fatalf("Tokens = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if Tokens("") != nil {
		t.Error("Tokens of empty string should be nil")
	}
}

func TestJaccardAndDice(t *testing.T) {
	if got := Jaccard("a b c", "a b c"); got != 1 {
		t.Errorf("identical Jaccard = %v", got)
	}
	if got := Jaccard("a b", "c d"); got != 0 {
		t.Errorf("disjoint Jaccard = %v", got)
	}
	if got := Jaccard("a b c d", "a b"); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Jaccard = %v, want 0.5", got)
	}
	if got := Dice("a b c d", "a b"); math.Abs(got-2.0/3.0) > 1e-9 {
		t.Errorf("Dice = %v, want 2/3", got)
	}
	if Jaccard("", "") != 1 || Dice("", "") != 1 {
		t.Error("empty-vs-empty should be 1")
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"kitten", "sitting", 3},
		{"abc", "abc", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"flaw", "lawn", 2},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if got := LevenshteinSimilarity("abc", "abc"); got != 1 {
		t.Errorf("LevenshteinSimilarity identical = %v", got)
	}
	if got := LevenshteinSimilarity("", ""); got != 1 {
		t.Errorf("LevenshteinSimilarity empty = %v", got)
	}
}

// TestLevenshteinSimilarityPinned pins exact similarity scores so that
// refactorings of the edit-distance hot path (shared by the dedup
// candidate scoring) cannot silently change the ranking.
func TestLevenshteinSimilarityPinned(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"Processor May Hang During Power State Transitions Under Load", "Processor Might Hang During Power State Transitions", 0.75},
		{"X87 FDP Value May be Saved Incorrectly", "X87 FDP Value May be Stored Incorrectly", 0.92307692307692313},
		{"Counter May Report Wrong Values", "Counter Might Report Wrong Values", 0.87878787878787878},
		{"USB Controller Drops Packets", "Cache Line Eviction May Stall", 0.10344827586206895},
		{"  Hello,   World!! ", "hello world", 1},
		{"", "nonempty", 0},
	}
	for _, c := range cases {
		if got := LevenshteinSimilarity(c.a, c.b); got != c.want {
			t.Errorf("LevenshteinSimilarity(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
		// The similarity must stay consistent with the public distance.
		ra, rb := []rune(Normalize(c.a)), []rune(Normalize(c.b))
		maxLen := len(ra)
		if len(rb) > maxLen {
			maxLen = len(rb)
		}
		if maxLen > 0 {
			want := 1 - float64(Levenshtein(c.a, c.b))/float64(maxLen)
			if got := LevenshteinSimilarity(c.a, c.b); got != want {
				t.Errorf("LevenshteinSimilarity(%q,%q) = %v, inconsistent with Levenshtein (%v)", c.a, c.b, got, want)
			}
		}
	}
}

func TestShingles(t *testing.T) {
	sh := Shingles("a b c d", 2)
	for _, want := range []string{"a b", "b c", "c d"} {
		if _, ok := sh[want]; !ok {
			t.Errorf("missing shingle %q", want)
		}
	}
	if len(sh) != 3 {
		t.Errorf("shingle count = %d", len(sh))
	}
	// Fewer tokens than n: single shingle.
	sh = Shingles("a b", 5)
	if len(sh) != 1 {
		t.Errorf("short shingles = %v", sh)
	}
	if got := ShingleJaccard("a b c", "a b c", 2); got != 1 {
		t.Errorf("identical ShingleJaccard = %v", got)
	}
}

func TestCorpusCosine(t *testing.T) {
	c := NewCorpus([]string{
		"processor may hang during power transition",
		"processor may hang during power transition",
		"usb controller drops packets",
	})
	if got := c.Cosine(0, 1); math.Abs(got-1) > 1e-9 {
		t.Errorf("identical docs cosine = %v", got)
	}
	if got := c.Cosine(0, 2); got > 0.2 {
		t.Errorf("unrelated docs cosine = %v, want near 0", got)
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestRankPairs(t *testing.T) {
	c := NewCorpus([]string{
		"alpha beta gamma",
		"alpha beta gamma",
		"alpha beta delta",
		"unrelated text entirely",
	})
	pairs := c.RankPairs(0.3)
	if len(pairs) == 0 {
		t.Fatal("no pairs found")
	}
	if pairs[0].I != 0 || pairs[0].J != 1 {
		t.Errorf("best pair = %+v, want (0,1)", pairs[0])
	}
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Score > pairs[i-1].Score {
			t.Error("pairs not sorted by decreasing score")
		}
	}
	for _, p := range pairs {
		if p.I == 3 || p.J == 3 {
			if p.Score >= 0.3 {
				t.Errorf("unrelated doc scored %v", p.Score)
			}
		}
	}
}

func TestSimilarityDispatch(t *testing.T) {
	a, b := "processor hang", "processor hang"
	for _, m := range []Metric{MetricJaccard, MetricDice, MetricLevenshtein, MetricShingle2, ""} {
		if got := mustSimilarity(t, m, a, b); got != 1 {
			t.Errorf("Similarity(%q) identical = %v", m, got)
		}
	}
	if got, want := mustSimilarity(t, "", "a b c d", "a b"), Jaccard("a b c d", "a b"); got != want {
		t.Errorf("empty metric = %v, want Jaccard %v", got, want)
	}

	// An unknown metric is an error, not a silent Jaccard fallback.
	unknown := Metric("jacard")
	if err := unknown.Validate(); err == nil {
		t.Error("Validate accepted an unknown metric")
	}
	if _, err := NewScorer(unknown, []string{a, b}); err == nil {
		t.Error("NewScorer accepted an unknown metric")
	}
	if _, err := Similarity(unknown, a, b); err == nil {
		t.Error("Similarity accepted an unknown metric")
	}
}

func mustSimilarity(t *testing.T, m Metric, a, b string) float64 {
	t.Helper()
	s, err := Similarity(m, a, b)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Properties of the similarity metrics.

func clip(s string) string {
	if len(s) > 64 {
		return s[:64]
	}
	return s
}

func TestPropertySymmetryAndRange(t *testing.T) {
	f := func(a, b string) bool {
		a, b = clip(a), clip(b)
		for _, m := range []Metric{MetricJaccard, MetricDice, MetricLevenshtein, MetricShingle2} {
			ab := mustSimilarity(t, m, a, b)
			ba := mustSimilarity(t, m, b, a)
			if math.Abs(ab-ba) > 1e-9 {
				return false
			}
			if ab < 0 || ab > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyIdentity(t *testing.T) {
	f := func(a string) bool {
		a = clip(a)
		for _, m := range []Metric{MetricJaccard, MetricDice, MetricLevenshtein, MetricShingle2} {
			if mustSimilarity(t, m, a, a) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyLevenshteinTriangle(t *testing.T) {
	f := func(a, b, c string) bool {
		a, b, c = clip(a), clip(b), clip(c)
		ab := Levenshtein(a, b)
		bc := Levenshtein(b, c)
		ac := Levenshtein(a, c)
		return ac <= ab+bc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyNormalizeIdempotent(t *testing.T) {
	f := func(a string) bool {
		n := Normalize(clip(a))
		return Normalize(n) == n && !strings.Contains(n, "  ")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkJaccard(b *testing.B) {
	x := "Processor May Hang During Power State Transitions Under Load"
	y := "Processor Might Hang During Power State Transitions"
	for i := 0; i < b.N; i++ {
		Jaccard(x, y)
	}
}

func BenchmarkLevenshtein(b *testing.B) {
	x := "Processor May Hang During Power State Transitions Under Load"
	y := "Processor Might Hang During Power State Transitions"
	for i := 0; i < b.N; i++ {
		Levenshtein(x, y)
	}
}
