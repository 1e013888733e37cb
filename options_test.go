package rememberr

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestFunctionalOptionsEquivalence proves the new With* options select
// exactly the configuration the legacy BuildOptions struct did: the
// same seed built both ways yields the same database.
func TestFunctionalOptionsEquivalence(t *testing.T) {
	legacy := DefaultBuildOptions()
	legacy.Seed = 2
	dbA, _, err := Build(legacy)
	if err != nil {
		t.Fatal(err)
	}
	dbB, _, err := Build(WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := dbA.Stats(), dbB.Stats(); a != b {
		t.Fatalf("stats differ between legacy and functional options:\n%+v\n%+v", a, b)
	}
	ea, eb := dbA.Errata(), dbB.Errata()
	if len(ea) != len(eb) {
		t.Fatalf("errata counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i].FullID() != eb[i].FullID() || ea[i].Key != eb[i].Key {
			t.Fatalf("entry %d differs: %s/%s vs %s/%s",
				i, ea[i].FullID(), ea[i].Key, eb[i].FullID(), eb[i].Key)
		}
	}
}

// TestOptionOrderAndLegacyReplacement pins the documented composition
// semantics: options apply in order, and a BuildOptions value replaces
// the whole configuration (so trailing With* options refine it).
// Options are applied exactly as Build does, without running a build.
func TestOptionOrderAndLegacyReplacement(t *testing.T) {
	apply := func(options ...Option) BuildOptions {
		opts := DefaultBuildOptions()
		for _, o := range options {
			o.applyOption(&opts)
		}
		return opts
	}

	// Later options win.
	if got := apply(WithSeed(3), WithSeed(9)); got.Seed != 9 {
		t.Errorf("later WithSeed did not win: seed = %d", got.Seed)
	}

	// A legacy struct wipes earlier options; later ones still apply.
	legacy := BuildOptions{Seed: 4}
	got := apply(WithParallelism(8), legacy, WithSimilarityMetric("dice"))
	if got.Seed != 4 || got.Parallelism != 0 || got.SimilarityMetric != "dice" {
		t.Errorf("legacy replacement semantics broken: %+v", got)
	}
	// The zero-valued legacy fields resolve exactly as the old
	// normalized() contract: threshold 0.6, steps 7, Interpolate off.
	norm := got.normalized()
	if norm.SimilarityThreshold != 0.6 || norm.AnnotationSteps != 7 || norm.Interpolate {
		t.Errorf("normalized legacy config drifted: %+v", norm)
	}

	// The explicit-zero setters keep their semantics through options.
	if n := apply(WithSimilarityThreshold(0)).normalized(); n.SimilarityThreshold != 0 {
		t.Errorf("WithSimilarityThreshold(0) resolved to %v, want explicit 0", n.SimilarityThreshold)
	}
}

// TestUnknownSimilarityMetricFailsBuild is the regression test for the
// silent Jaccard fallback: a misspelled metric fails the build instead
// of building with Jaccard scores under a distinct cache fingerprint.
func TestUnknownSimilarityMetricFailsBuild(t *testing.T) {
	_, _, err := Build(WithSeed(1), WithSimilarityMetric("jacard"))
	if err == nil || !strings.Contains(err.Error(), `unknown similarity metric "jacard"`) {
		t.Fatalf("Build with an unknown metric: err = %v, want an unknown-metric error", err)
	}
}

// TestBuildTraceAndObservability is the tentpole acceptance test for
// the build side: the span tree accounts for at least 90% of the build
// wall time, and the registry receives stage gauges plus the classify
// and worker-pool counters.
func TestBuildTraceAndObservability(t *testing.T) {
	reg := NewRegistry()
	_, rep, err := Build(WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	tr := rep.Trace
	if tr == nil || tr.Name != "build" {
		t.Fatalf("missing build trace: %+v", tr)
	}
	var names []string
	for _, c := range tr.Children {
		names = append(names, c.Name)
		if c.Duration() <= 0 {
			t.Errorf("stage %s has no duration", c.Name)
		}
	}
	want := []string{"corpus", "render", "parse", "dedup", "annotate", "timeline", "validate"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("stages = %v, want %v", names, want)
	}
	if covered := tr.ChildDuration(); float64(covered) < 0.9*float64(tr.Duration()) {
		t.Errorf("stage spans cover %v of %v (<90%%)", covered, tr.Duration())
	}
	// The annotate stage exposes its phases as children.
	for _, c := range tr.Children {
		if c.Name == "annotate" {
			if len(c.Children) != 3 || c.Children[0].Name != "classify" {
				t.Errorf("annotate children = %+v, want classify/protocol/propagate", c.Children)
			}
		}
	}
	// The trace is JSON-serializable for report embedding.
	if _, err := json.Marshal(tr); err != nil {
		t.Errorf("trace does not marshal: %v", err)
	}

	// Registry-side evidence that every instrumented layer recorded.
	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	out := expo.String()
	for _, metric := range []string{
		`rememberr_build_stage_seconds{stage="parse"}`,
		`rememberr_build_stage_items{stage="corpus"}`,
		"rememberr_classify_memo_hits_total",
		"rememberr_classify_memo_misses_total",
		"rememberr_classify_prefilter_candidates_total",
		"rememberr_parallel_tasks_total",
	} {
		if !strings.Contains(out, metric) {
			t.Errorf("exposition missing %s", metric)
		}
	}

	// A default build is untraced in the registry sense but still
	// carries the trace tree.
	_, rep2, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Trace == nil || len(rep2.Trace.Children) != len(want) {
		t.Fatalf("untraced build lost its trace tree: %+v", rep2.Trace)
	}
}
