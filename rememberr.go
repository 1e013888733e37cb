// Package rememberr is a Go reproduction of "RemembERR: Leveraging
// Microprocessor Errata for Design Testing and Validation" (Solt,
// Jattke, Razavi; MICRO 2022).
//
// It builds the RemembERR database — 2,563 errata across all Intel Core
// and AMD microprocessor documents since 2008, annotated with
// conjunctive triggers, and disjunctive contexts and observable effects
// on three abstraction levels — and reproduces every table and figure
// of the paper's evaluation.
//
// Because the original PDF documents are withdrawn or proprietary, the
// corpus substrate is synthetic: a deterministic generator emits
// specification-update documents in a faithful text format, calibrated
// to the statistics the paper reports, and the full pipeline (parsing,
// deduplication, regex-assisted classification, simulated four-eyes
// annotation, disclosure-date inference) genuinely recovers the
// database from that text. See DESIGN.md for the substitution argument.
//
// Quickstart:
//
//	db, rep, err := rememberr.Build()
//	if err != nil { ... }
//	fmt.Println(db.Stats())
//	fmt.Println(rememberr.NewExperiments(db).Figure10().Text)
//
// Build is configured with functional options (WithSeed,
// WithParallelism, WithObservability, ...); the legacy BuildOptions
// struct still satisfies Option, so existing callers keep compiling:
//
//	db, rep, err := rememberr.Build(rememberr.WithSeed(7), rememberr.WithParallelism(4))
//	db, rep, err := rememberr.Build(legacyBuildOptions) // deprecated, still works
package rememberr

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/annotate"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dedup"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/specdoc"
	"repro/internal/taxonomy"
	"repro/internal/textsim"
	"repro/internal/timeline"
	"repro/pkg/domain"

	// The root package is a composition root: it wires the built-in
	// rule pack and corpus profile as the plugin-registry defaults.
	_ "repro/plugins/defaults"
)

// Re-exported types so that users of the library can name the values the
// facade returns without importing internal packages.
type (
	// Vendor identifies a microprocessor vendor (Intel or AMD).
	Vendor = core.Vendor
	// Erratum is a single annotated erratum entry.
	Erratum = core.Erratum
	// Document is a parsed specification-update document.
	Document = core.Document
	// Annotation is the trigger/context/effect annotation of an erratum.
	Annotation = core.Annotation
	// Item is one annotated property (abstract category + concrete text).
	Item = core.Item
	// Kind discriminates triggers, contexts and effects.
	Kind = taxonomy.Kind
	// Scheme is the three-level classification scheme.
	Scheme = taxonomy.Scheme
	// WorkaroundCategory classifies where a workaround applies.
	WorkaroundCategory = core.WorkaroundCategory
	// FixStatus captures whether a bug's root cause was fixed.
	FixStatus = core.FixStatus
	// Metric names a title-similarity metric for deduplication.
	Metric = textsim.Metric
	// StructuredErratum is the machine-readable format of Table VII.
	StructuredErratum = core.StructuredErratum
)

// Re-exported constants.
const (
	Intel = core.Intel
	AMD   = core.AMD

	Trigger = taxonomy.Trigger
	Context = taxonomy.Context
	Effect  = taxonomy.Effect
)

// BaseScheme returns the paper's 60-category classification scheme
// (Tables IV-VI).
func BaseScheme() *Scheme { return taxonomy.Base() }

// Registry re-exports the observability registry so callers can wire
// Build and the serving layer onto one metrics namespace without
// importing internal packages.
type Registry = obs.Registry

// NewRegistry returns an empty observability registry (see
// WithObservability).
func NewRegistry() *Registry { return obs.NewRegistry() }

// TraceSpan is one stage of the build trace (see BuildReport.Trace).
type TraceSpan = obs.Span

// Option configures Build. Options are applied in order over the
// paper-faithful defaults. The legacy BuildOptions struct satisfies
// Option by replacing the whole configuration, so pre-options call
// sites — Build(opts) with a BuildOptions value — compile and behave
// unchanged.
type Option interface {
	applyOption(*BuildOptions)
}

// optionFunc adapts a closure to the Option interface.
type optionFunc func(*BuildOptions)

func (f optionFunc) applyOption(o *BuildOptions) { f(o) }

// applyOption makes the legacy options struct usable as an Option: it
// replaces the entire configuration, reproducing the semantics of the
// old Build(BuildOptions) signature (zero fields mean "default or
// zero value" exactly as normalized() always resolved them).
func (o BuildOptions) applyOption(dst *BuildOptions) { *dst = o }

// WithSeed sets the corpus-generator and annotator seed; the same seed
// reproduces the same database bit for bit.
func WithSeed(seed int64) Option {
	return optionFunc(func(o *BuildOptions) { o.Seed = seed })
}

// WithSimilarityMetric selects the title-similarity metric that ranks
// duplicate candidates. Build fails on an unknown metric.
func WithSimilarityMetric(m Metric) Option {
	return optionFunc(func(o *BuildOptions) { o.SimilarityMetric = m })
}

// WithSimilarityThreshold sets the minimum title similarity for a
// candidate pair to be reviewed. Unlike assigning the struct field, an
// explicit 0 means "review every candidate pair" rather than falling
// back to the default 0.6.
func WithSimilarityThreshold(t float64) Option {
	return optionFunc(func(o *BuildOptions) { o.SetSimilarityThreshold(t) })
}

// WithInterpolation enables or disables sequential-number disclosure
// interpolation (the paper's configuration interpolates).
func WithInterpolation(on bool) Option {
	return optionFunc(func(o *BuildOptions) { o.Interpolate = on })
}

// WithAnnotationSteps sets the number of four-eyes discussion batches.
// Unlike assigning the struct field, an explicit 0 is passed to the
// annotation stage — which rejects it — instead of being silently
// replaced by the default 7.
func WithAnnotationSteps(n int) Option {
	return optionFunc(func(o *BuildOptions) { o.SetAnnotationSteps(n) })
}

// WithParallelism bounds the worker goroutines of the parallel
// pipeline stages (0 = GOMAXPROCS, 1 = sequential). The built database
// is byte-identical at every value.
func WithParallelism(n int) Option {
	return optionFunc(func(o *BuildOptions) { o.Parallelism = n })
}

// WithCache enables content-addressed incremental rebuilds: every
// build stage's output artifact is persisted under dir, keyed by a
// digest of the stage's code version, its configuration, and its input
// artifacts' digests. A later Build sharing the directory replays every
// stage whose key is unchanged from disk and re-runs only the affected
// suffix of the stage graph — e.g. toggling only the interpolation knob
// replays corpus through annotate from cache and re-runs just timeline
// and validate. The built database and report are byte-identical to an
// uncached build at every cache state and worker count; cached stages
// appear in BuildReport.Trace with Cached set.
func WithCache(dir string) Option {
	return optionFunc(func(o *BuildOptions) { o.CacheDir = dir })
}

// WithObservability directs the build's metrics into reg: per-stage
// spans (also returned as BuildReport.Trace), classify memo and
// prefilter counters, and worker-pool queue/task counters. Pass the
// same registry to serve.Options.Observability to expose build and
// serving metrics on one /metrics endpoint. A nil registry disables
// instrumentation (the default).
func WithObservability(reg *Registry) Option {
	return optionFunc(func(o *BuildOptions) { o.Observability = reg })
}

// BuildOptions configures the end-to-end database construction.
//
// Deprecated: BuildOptions remains as a compatibility shim — it
// satisfies Option, so Build(opts) keeps working — but new code should
// compose the With* functional options instead, which cannot get the
// zero-value footguns wrong (see SetSimilarityThreshold and
// SetAnnotationSteps).
type BuildOptions struct {
	// Seed drives the corpus generator and the annotator error
	// processes; the same seed reproduces the same database bit for bit.
	Seed int64
	// SimilarityMetric ranks Intel duplicate candidates (default
	// Jaccard; see the ablation benchmarks for alternatives). Build
	// fails on an unknown metric.
	SimilarityMetric Metric
	// SimilarityThreshold is the minimum title similarity for a
	// candidate pair to be reviewed. The zero value selects the default
	// 0.6; use SetSimilarityThreshold to request an explicit threshold
	// of 0 ("review every candidate pair").
	SimilarityThreshold float64
	// Interpolate enables sequential-number disclosure interpolation
	// (default true, as in the paper).
	Interpolate bool
	// AnnotationSteps is the number of four-eyes discussion batches.
	// The zero value selects the default 7 (as in the paper); use
	// SetAnnotationSteps to pass an explicit value, which is validated
	// instead of silently replaced.
	AnnotationSteps int
	// Parallelism bounds the number of worker goroutines used by the
	// parallel pipeline stages: document rendering and parsing,
	// duplicate-candidate scoring, and regex classification. 0 selects
	// runtime.GOMAXPROCS(0); 1 forces the fully sequential path. The
	// built database and report are byte-identical at every value —
	// see the concurrency model in DESIGN.md.
	Parallelism int
	// Observability, when non-nil, receives the build's metrics and
	// stage spans (see WithObservability). Instrumentation never
	// changes the built database.
	Observability *Registry
	// CacheDir, when non-empty, persists stage artifacts under this
	// directory for content-addressed incremental rebuilds (see
	// WithCache). Empty disables caching.
	CacheDir string

	// similarityThresholdSet / annotationStepsSet distinguish explicit
	// zero values (via the setters) from unset fields.
	similarityThresholdSet bool
	annotationStepsSet     bool
}

// SetSimilarityThreshold sets SimilarityThreshold explicitly. Unlike
// assigning the field directly, an explicit zero survives option
// normalization: every candidate pair is surfaced for review instead
// of silently falling back to the default 0.6.
//
// Deprecated: use the WithSimilarityThreshold option, which has the
// explicit-zero semantics built in.
func (o *BuildOptions) SetSimilarityThreshold(t float64) {
	o.SimilarityThreshold = t
	o.similarityThresholdSet = true
}

// SetAnnotationSteps sets AnnotationSteps explicitly. Unlike assigning
// the field directly, an explicit zero is passed through to the
// annotation stage — which rejects it — instead of being silently
// replaced by the default 7.
//
// Deprecated: use the WithAnnotationSteps option, which has the
// explicit-zero semantics built in.
func (o *BuildOptions) SetAnnotationSteps(n int) {
	o.AnnotationSteps = n
	o.annotationStepsSet = true
}

// normalized resolves unset options to their documented defaults
// without disturbing explicitly set values.
func (o BuildOptions) normalized() BuildOptions {
	if o.SimilarityMetric == "" {
		o.SimilarityMetric = textsim.MetricJaccard
	}
	if o.SimilarityThreshold == 0 && !o.similarityThresholdSet {
		o.SimilarityThreshold = 0.6
	}
	if o.AnnotationSteps == 0 && !o.annotationStepsSet {
		o.AnnotationSteps = 7
	}
	return o
}

// DefaultBuildOptions returns the paper-faithful configuration.
func DefaultBuildOptions() BuildOptions {
	return BuildOptions{
		Seed:                1,
		SimilarityMetric:    textsim.MetricJaccard,
		SimilarityThreshold: 0.6,
		Interpolate:         true,
		AnnotationSteps:     7,
	}
}

// BuildReport documents one pipeline run.
type BuildReport struct {
	// Diagnostics lists the document inconsistencies ("errata in
	// errata") the parser surfaced.
	Diagnostics []specdoc.Diagnostic
	// Dedup summarizes duplicate detection (unique counts, reviewed
	// candidate pairs, confirmed pairs).
	Dedup *dedup.Result
	// Annotation summarizes the four-eyes protocol (steps, agreement,
	// decision volumes).
	Annotation *annotate.Result
	// Timeline summarizes disclosure-date inference.
	Timeline timeline.Stats
	// GroundTruth is the generator's hidden truth; it backs the manual
	// review and annotation oracles and lets callers validate recovery.
	GroundTruth *corpus.GroundTruth
	// Trace is the per-stage span tree of this build: wall time and
	// item counts for corpus generation, document rendering, parsing,
	// deduplication, annotation (with classify/protocol/propagate
	// children), disclosure inference and validation. Always present;
	// when the build ran with WithObservability the same stage timings
	// are also published as registry gauges.
	Trace *TraceSpan
}

// Database is the built RemembERR database.
type Database struct {
	core   *core.Database
	report *BuildReport
	idx    atomic.Pointer[index.Index]

	// flightMu/flight coalesce concurrent BuildIndex calls into one
	// index construction (singleflight). flightJoined, when non-nil,
	// is invoked each time a caller joins an existing flight — a test
	// seam that lets the singleflight tests sequence joiners
	// deterministically.
	flightMu     sync.Mutex
	flight       *indexFlight
	flightJoined func()
}

// indexFlight is one in-progress index construction; joiners block on
// done and share the leader's result.
type indexFlight struct {
	done chan struct{}
	ix   *index.Index
}

// Build runs the full pipeline: corpus generation, document rendering,
// parsing, deduplication, classification plus simulated four-eyes
// annotation, and disclosure-date inference. With no options it builds
// the paper-faithful default configuration (DefaultBuildOptions);
// options are applied in order. A legacy BuildOptions value is itself
// an Option (it replaces the whole configuration), so existing
// Build(opts) call sites work unchanged.
func Build(options ...Option) (*Database, *BuildReport, error) {
	opts := DefaultBuildOptions()
	for _, o := range options {
		o.applyOption(&opts)
	}
	opts = opts.normalized()

	reg := opts.Observability
	if reg != nil {
		parallel.Instrument(reg)
	}

	runner := &pipeline.Runner{Obs: reg}
	if opts.CacheDir != "" {
		cache, err := pipeline.NewDiskCache(opts.CacheDir)
		if err != nil {
			return nil, nil, fmt.Errorf("rememberr: open pipeline cache: %w", err)
		}
		runner.Cache = cache
	}
	res, err := runner.Run("build", buildStages(opts))
	if err != nil {
		return nil, nil, err
	}
	return assembleBuild(res)
}

func uniformFractions(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1 / float64(n)
	}
	return out
}

// Core exposes the underlying database for advanced use.
func (db *Database) Core() *core.Database { return db.core }

// BuildIndex builds the inverted-index query engine over the current
// database contents and returns it. Afterwards, Query terminal
// operations compile to postings-list intersections instead of scanning
// every entry; results are identical on both paths. The index is a
// snapshot: call BuildIndex again after mutating the underlying core
// database. Safe for concurrent use with Query execution, and
// singleflight under contention: concurrent callers coalesce onto one
// construction and all receive the same *index.Index; a call issued
// after that construction finished builds a fresh snapshot.
func (db *Database) BuildIndex() *index.Index {
	return db.buildIndexWith(index.Build)
}

// buildIndexWith is BuildIndex with the index constructor injected, the
// seam the singleflight tests use to hold a flight open deterministically.
func (db *Database) buildIndexWith(build func(*core.Database) *index.Index) *index.Index {
	db.flightMu.Lock()
	if f := db.flight; f != nil {
		joined := db.flightJoined
		db.flightMu.Unlock()
		if joined != nil {
			joined()
		}
		<-f.done
		return f.ix
	}
	f := &indexFlight{done: make(chan struct{})}
	db.flight = f
	db.flightMu.Unlock()

	f.ix = build(db.core)
	db.idx.Store(f.ix)

	db.flightMu.Lock()
	db.flight = nil
	db.flightMu.Unlock()
	close(f.done)
	return f.ix
}

// Index returns the inverted index built by BuildIndex, or nil when
// queries run on the closure-scan path.
func (db *Database) Index() *index.Index { return db.idx.Load() }

// Report returns the build report, or nil for loaded databases.
func (db *Database) Report() *BuildReport { return db.report }

// Scheme returns the classification scheme in force.
func (db *Database) Scheme() domain.Scheme { return db.core.Scheme }

// Stats summarizes corpus-level counts.
type Stats = core.Stats

// Stats recomputes corpus statistics.
func (db *Database) Stats() Stats { return db.core.ComputeStats() }

// Documents returns all documents in vendor/order sequence.
func (db *Database) Documents() []*Document { return db.core.Documents() }

// Errata returns every entry, duplicates counted individually.
func (db *Database) Errata() []*Erratum { return db.core.Errata() }

// Unique returns one representative entry per deduplicated erratum.
func (db *Database) Unique() []*Erratum { return db.core.Unique() }

// UniqueVendor returns the unique errata of one vendor.
func (db *Database) UniqueVendor(v Vendor) []*Erratum { return db.core.UniqueVendor(v) }

// Document returns one document by key, or nil.
func (db *Database) Document(key string) *Document { return db.core.Docs[key] }

// FromCore wraps an existing core database (e.g. one loaded from JSON)
// in the facade. The resulting Database has no build provenance:
// Report returns nil (callers must nil-check before reading build
// artifacts) and Index returns nil until BuildIndex is called; every
// other accessor — Stats, Errata, Unique, Query, the serving layer —
// works identically to a freshly built database.
func FromCore(c *core.Database) *Database { return &Database{core: c} }
