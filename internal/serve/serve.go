// Package serve exposes a loaded RemembERR database over an HTTP JSON
// API — the serving layer for the paper's released-database use case.
// The API is versioned under /v1; operational endpoints stay at the
// root:
//
//	GET /v1/errata        filtered query (see parseFilters for parameters)
//	GET /v1/errata/{key}  every occurrence of one deduplicated erratum
//	GET /v1/stats         corpus statistics
//	GET /v1/metrics.json  JSON snapshot of the server's instruments
//	GET /healthz          liveness probe
//	GET /metrics          Prometheus text exposition (whole registry)
//
// The legacy unversioned paths (/errata, /errata/{key}, /stats) answer
// with 308 Permanent Redirect to their /v1 equivalents, preserving the
// query string, so pre-v1 clients keep working.
//
// Queries execute on the inverted index (internal/index), results are
// memoized in an LRU cache keyed by the canonicalized filter set, and
// every endpoint records request/error counters plus a latency
// histogram into a single obs registry (rememberr_http_*). Passing a
// shared registry via Options.Observability folds build-pipeline and
// index metrics into the same /metrics page.
//
// With Options.Shards > 0 the server runs as a sharded scatter-gather
// tier (internal/shard): the errata space is partitioned by dedup-key
// hash into N shards, each owning its own sub-database and index;
// /v1/errata fans out to every shard concurrently and merges the
// shard-local results back into global order (per-shard latency lands
// in rememberr_shard_fanout_duration_seconds), while /v1/errata/{key}
// routes to the single shard owning the key. Responses are
// byte-identical to the single-index server at every shard count —
// pinned by the equivalence tests — and the whole cluster swaps
// atomically on reload, exactly like the single-index snapshot.
//
// The server holds its data behind an atomically swappable snapshot —
// an immutable (database, index, generation) triple. Swap installs a
// new snapshot with zero downtime: each request loads the pointer once
// and works against that generation for its whole lifetime, so no
// request ever observes a torn state, and in-flight requests on the old
// generation finish unperturbed. Response-cache entries are keyed by
// generation, so a swap implicitly invalidates the cache without a
// stop-the-world flush and a stale entry is never served for a newer
// generation. POST /v1/admin/reload swaps in a fresh snapshot from
// Options.ReloadSource (a re-opened store file) or Options.Reloader (a
// rebuilt or re-loaded database); ReloadSource wins when both are set,
// and the endpoint answers 501 when neither is. The server is
// safe for arbitrary concurrency: snapshots are immutable, the cache is
// mutex-guarded, and the instruments are lock-free.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/taxonomy"
)

// Options configures the server.
type Options struct {
	// CacheSize is the LRU capacity in cached responses. 0 selects the
	// default 256; negative disables caching.
	CacheSize int
	// RequestTimeout bounds handler execution per request. 0 selects
	// the default 10s.
	RequestTimeout time.Duration
	// ShutdownGrace bounds how long Serve waits for in-flight requests
	// on shutdown. 0 selects the default 5s.
	ShutdownGrace time.Duration
	// Observability is the registry receiving the server's instruments.
	// nil selects a fresh private registry, so /metrics always works;
	// pass the registry used for the build to expose its metrics too.
	Observability *obs.Registry
	// EnableProfiling mounts net/http/pprof under /debug/pprof/,
	// outside the request-timeout wrapper (profiles legitimately run
	// longer than API requests).
	EnableProfiling bool
	// Reloader, when non-nil, produces a fresh database for
	// POST /v1/admin/reload (and Server.Reload): typically a warm
	// pipeline rebuild or a store-file load. The returned database is
	// swapped in atomically; the reloader must not mutate it afterwards.
	// ReloadSource takes precedence when both are set; when neither is,
	// the reload endpoint answers 501 Not Implemented.
	Reloader func(ctx context.Context) (*core.Database, error)
	// ReloadSource, when non-nil, produces a fresh store.Reader for
	// POST /v1/admin/reload (and Server.Reload) — the store-backed
	// sibling of Reloader, so a reload of an mmap-backed corpus reopens
	// the file instead of materializing a database first. The server
	// swaps the reader in via SwapReader and closes it afterwards
	// (snapshots hold their own region reference), so the callback must
	// hand over ownership. Takes precedence over Reloader when both are
	// set.
	ReloadSource func(ctx context.Context) (store.Reader, error)
	// Shards selects the sharded scatter-gather tier: the errata space
	// is partitioned by dedup-key hash into this many shards, each with
	// its own sub-database and index; /v1/errata fans out to all shards
	// concurrently and merges into global order, /v1/errata/{key}
	// routes to the owning shard. 0 (the default) serves from a single
	// index; 1 runs the full scatter-gather machinery on one shard
	// (useful for equivalence testing). Results are byte-identical to
	// the single-index server at every shard count.
	Shards int
	// Ingest, when non-nil, applies one specification-update document
	// text to the live corpus for POST /v1/admin/ingest: typically a
	// closure over an ingest.Ingester whose Apply feeds Server.SwapDelta.
	// The callback owns the ordering discipline — it must serialize
	// apply+swap pairs so concurrent ingests cannot install snapshots
	// out of order. When nil, the ingest endpoint answers 501 Not
	// Implemented.
	Ingest func(ctx context.Context, text string) (IngestSummary, error)
}

// IngestSummary reports what one POST /v1/admin/ingest changed.
type IngestSummary struct {
	// Generation is the snapshot generation now serving the document.
	Generation uint64 `json:"generation"`
	// Documents is the number of documents added or replaced.
	Documents int `json:"documents"`
	// Errata is the entry count of the documents ingested.
	Errata int `json:"errata"`
	// Skipped is the number of documents dropped as byte-identical to
	// the already-served version.
	Skipped int `json:"skipped"`
}

func (o Options) withDefaults() Options {
	if o.CacheSize == 0 {
		o.CacheSize = 256
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.ShutdownGrace == 0 {
		o.ShutdownGrace = 5 * time.Second
	}
	return o
}

// endpointInstruments holds one route's registry-backed instruments,
// resolved once at construction so the per-request path is lock-free.
type endpointInstruments struct {
	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

// endpointNames lists every instrumented route; "redirect" aggregates
// the legacy unversioned paths.
var endpointNames = []string{
	"errata", "erratum", "stats", "healthz", "metrics", "metrics_json", "redirect",
	"admin_reload", "admin_ingest",
}

// snapshot is one immutable serving state: a database, its inverted
// index (or sharded cluster), the precomputed stats, and a
// monotonically increasing generation id. Handlers load the current
// snapshot exactly once per request, so every response is internally
// consistent with a single generation even while Swap installs a new
// one mid-flight.
type snapshot struct {
	db      *core.Database
	ix      *index.Index   // single-index mode; nil when sharded
	cluster *shard.Cluster // sharded mode; nil when single-index
	stats   core.Stats
	gen     uint64
	// frags holds the precomputed canonical JSON response fragments of
	// this snapshot's entries; the hot read path stitches responses
	// from them instead of marshaling. nil disables stitching (the
	// handlers fall back to encoding/json), never correctness.
	frags *store.Fragments
	// region is the mapped store region this snapshot's strings alias,
	// nil for heap-backed snapshots. The snapshot owns one reference;
	// handlers retain it for the request's lifetime (acquire/release)
	// so a swap-triggered release can never munmap under an in-flight
	// read.
	region *store.Region
}

// release drops the caller's retained region reference (no-op for
// heap-backed snapshots). Pairs with Server.acquireSnap.
func (sn *snapshot) release() {
	if sn != nil && sn.region != nil {
		sn.region.Release()
	}
}

// size and uniqueCount answer the entry counts regardless of mode.
func (sn *snapshot) size() int {
	if sn.cluster != nil {
		return sn.cluster.Entries()
	}
	return sn.ix.Size()
}

func (sn *snapshot) uniqueCount() int {
	if sn.cluster != nil {
		return sn.cluster.UniqueCount()
	}
	return sn.ix.UniqueCount()
}

// Server serves atomically swappable database snapshots.
type Server struct {
	snap  atomic.Pointer[snapshot]
	gen   atomic.Uint64
	opts  Options
	cache *lruCache
	reg   *obs.Registry

	// swapMu serializes snapshot installation so generation ids are
	// stored in increasing order; reloadMu additionally serializes
	// whole reloads (build + swap) so concurrent reload requests don't
	// run redundant rebuilds.
	swapMu     sync.Mutex
	reloadMu   sync.Mutex
	swaps      *obs.Counter
	deltaSwaps *obs.Counter
	swapLag    *obs.Histogram

	endpoints map[string]*endpointInstruments

	// Sharded-tier instruments (nil slices/instruments in single mode).
	shardLat      []*obs.Histogram // per-shard fan-out latency, indexed by shard id
	merges        *obs.Counter
	mergeRows     *obs.Counter
	shardRebuilds *obs.Counter
}

// Option configures New. Exactly one data source must be supplied —
// WithDatabase or WithStore — plus any number of tuning options. A
// whole Options struct is itself an Option (it replaces the full
// configuration, mirroring pipeline.Build), so existing Options
// literals migrate by appending a source:
//
//	srv, err := serve.New(serve.WithDatabase(db), serve.Options{Shards: 4})
type Option interface {
	applyOption(*config)
}

// config is the resolved New configuration: tuning options plus the
// single data source.
type config struct {
	opts Options
	db   *core.Database
	st   store.Reader
}

// applyOption replaces the whole tuning configuration, making Options
// usable directly as an Option. Sources set by WithDatabase/WithStore
// are untouched.
func (o Options) applyOption(c *config) { c.opts = o }

// optionFunc adapts a closure to the Option interface.
type optionFunc func(*config)

func (f optionFunc) applyOption(c *config) { f(c) }

// WithDatabase serves the given in-memory database: the index is built
// over it and fragments are precomputed. The caller must not mutate db
// afterwards.
func WithDatabase(db *core.Database) Option {
	return optionFunc(func(c *config) { c.db = db })
}

// WithStore serves from an opened store reader. For a FormatVersion 2
// reader the database materializes from the file's records, index
// postings and response fragments load from the file where present,
// and — when the reader is mmap-backed — the serving snapshot retains
// the mapped region so the strings it aliases stay valid for as long
// as any snapshot or in-flight request uses them. The server takes its
// own region reference during New; the caller keeps ownership of r and
// should Close it when done handing it to servers (the mapping stays
// alive until the last snapshot referencing it is replaced).
func WithStore(r store.Reader) Option {
	return optionFunc(func(c *config) { c.st = r })
}

// WithCacheSize sets Options.CacheSize.
func WithCacheSize(n int) Option {
	return optionFunc(func(c *config) { c.opts.CacheSize = n })
}

// WithShards sets Options.Shards.
func WithShards(n int) Option {
	return optionFunc(func(c *config) { c.opts.Shards = n })
}

// WithObservability sets Options.Observability.
func WithObservability(reg *obs.Registry) Option {
	return optionFunc(func(c *config) { c.opts.Observability = reg })
}

// WithReloadSource sets Options.ReloadSource.
func WithReloadSource(f func(ctx context.Context) (store.Reader, error)) Option {
	return optionFunc(func(c *config) { c.opts.ReloadSource = f })
}

// New returns a ready server serving generation 1 from the configured
// source. It errors when no source option was given, when both were
// given, or when a store source fails to materialize.
func New(opts ...Option) (*Server, error) {
	var c config
	for _, o := range opts {
		o.applyOption(&c)
	}
	switch {
	case c.db == nil && c.st == nil:
		return nil, errors.New("serve: New needs a data source (WithDatabase or WithStore)")
	case c.db != nil && c.st != nil:
		return nil, errors.New("serve: WithDatabase and WithStore are mutually exclusive")
	}
	s := newServer(c.opts)
	if c.st != nil {
		if _, err := s.SwapReader(c.st); err != nil {
			return nil, err
		}
		return s, nil
	}
	s.Swap(c.db)
	return s, nil
}

func newServer(opts Options) *Server {
	opts = opts.withDefaults()
	reg := opts.Observability
	if reg == nil {
		reg = obs.NewRegistry()
	}
	endpoints := make(map[string]*endpointInstruments, len(endpointNames))
	for _, name := range endpointNames {
		endpoints[name] = &endpointInstruments{
			requests: reg.Counter("rememberr_http_requests_total",
				"HTTP requests served, by endpoint.", obs.L("endpoint", name)),
			errors: reg.Counter("rememberr_http_errors_total",
				"HTTP responses with status >= 400, by endpoint.", obs.L("endpoint", name)),
			latency: reg.Histogram("rememberr_http_request_duration_seconds",
				"HTTP request latency, by endpoint.", obs.LatencyBuckets, obs.L("endpoint", name)),
		}
	}
	cache := newLRUCache(opts.CacheSize,
		reg.Counter("rememberr_cache_hits_total", "Query-cache hits."),
		reg.Counter("rememberr_cache_misses_total", "Query-cache misses."),
		reg.Counter("rememberr_cache_evictions_total", "Query-cache capacity evictions."))
	reg.GaugeFunc("rememberr_cache_entries", "Query-cache resident entries.",
		func() float64 { return float64(cache.entries()) })
	reg.Gauge("rememberr_cache_capacity", "Query-cache capacity.").Set(float64(opts.CacheSize))
	s := &Server{
		opts:      opts,
		cache:     cache,
		reg:       reg,
		endpoints: endpoints,
	}
	s.swaps = reg.Counter("rememberr_snapshot_swaps_total",
		"Database snapshot installations (including the initial one).")
	s.deltaSwaps = reg.Counter("rememberr_snapshot_delta_swaps_total",
		"Snapshot installations that went through the delta-merge path.")
	s.swapLag = reg.Histogram("rememberr_ingest_swap_lag_seconds",
		"Latency from delta-swap start (index merge / repartition) to snapshot visibility.",
		obs.LatencyBuckets)
	if opts.Shards > 0 {
		s.shardLat = make([]*obs.Histogram, opts.Shards)
		for i := range s.shardLat {
			s.shardLat[i] = reg.Histogram("rememberr_shard_fanout_duration_seconds",
				"Per-shard query execution latency during scatter-gather fan-out.",
				obs.LatencyBuckets, obs.L("shard", strconv.Itoa(i)))
		}
		s.merges = reg.Counter("rememberr_shard_merges_total",
			"Scatter-gather merges performed by the sharded tier.")
		s.mergeRows = reg.Counter("rememberr_shard_merge_rows_total",
			"Result rows emitted by scatter-gather merges.")
		s.shardRebuilds = reg.Counter("rememberr_shard_rebuilds_total",
			"Shard indexes rebuilt by delta swaps (reused shards not counted).")
		reg.Gauge("rememberr_shards", "Shard count of the serving tier.").
			Set(float64(opts.Shards))
	}
	reg.GaugeFunc("rememberr_snapshot_generation", "Currently served snapshot generation.",
		func() float64 {
			if snap := s.snap.Load(); snap != nil {
				return float64(snap.gen)
			}
			return 0
		})
	return s
}

// Swap atomically installs db as the served snapshot and returns its
// generation id. The index (or, in sharded mode, the whole partitioned
// cluster) is built and the stats computed before the pointer flips, so
// requests only ever see complete snapshots; in-flight requests on the
// previous generation finish against it undisturbed, and response-cache
// entries of older generations are never served again (keys are
// generation-scoped). The caller must not mutate db after Swap.
func (s *Server) Swap(db *core.Database) uint64 {
	snap, _ := s.buildSnapshot(db, nil) // cannot fail without a store
	s.install(snap)
	return snap.gen
}

// install assigns snap the next generation and makes it the served
// snapshot, then drops the server's reference on the displaced
// snapshot's region. The release happens outside swapMu and after the
// pointer flip, so a last-reference munmap never runs while readers
// could still load the old snapshot without having retained it.
func (s *Server) install(snap *snapshot) {
	s.swapMu.Lock()
	snap.gen = s.gen.Add(1)
	prev := s.snap.Load()
	s.snap.Store(snap)
	s.swapMu.Unlock()
	prev.release()
	s.swaps.Inc()
}

// SwapReader installs the contents of an opened store reader as the
// served snapshot. A FormatVersion 2 reader serves off its own bytes:
// index postings and response fragments load from the file where
// present, and in sharded mode the cluster materializes lazily —
// shard.PartitionStore decodes each erratum exactly once, by the shard
// that owns it. When the reader is mmap-backed the new snapshot
// retains the mapped region (the caller's reference stays the
// caller's; Close remains its job), so the mapping outlives every
// snapshot and in-flight request that aliases it. Readers of other
// formats materialize their database and take the plain Swap path.
func (s *Server) SwapReader(r store.Reader) (uint64, error) {
	sv, ok := r.(*store.StoreV2)
	if !ok {
		db, err := r.Database()
		if err != nil {
			return 0, err
		}
		return s.Swap(db), nil
	}
	region := sv.Region()
	if region != nil && !region.TryRetain() {
		return 0, errors.New("serve: store is closed")
	}
	snap, err := s.buildSnapshot(nil, sv)
	if err != nil {
		if region != nil {
			region.Release()
		}
		return 0, err
	}
	snap.region = region
	s.install(snap)
	return snap.gen, nil
}

// buildSnapshot assembles the (un-installed, generation-less)
// snapshot serving db or, when sv is non-nil, the FormatVersion 2 store
// sv. A store contributes what its file carries — the database, the
// index postings as spans over the file, the response fragments — and
// everything missing is built here: the index (or sharded cluster)
// from the database, the fragments by marshaling. The error reports a
// store that failed to materialize; with sv nil it is always nil.
func (s *Server) buildSnapshot(db *core.Database, sv *store.StoreV2) (*snapshot, error) {
	snap := &snapshot{db: db}
	var frags *store.Fragments
	if sv != nil {
		var err error
		if s.opts.Shards > 0 && !sv.Materialized() {
			// Lazy partition: placement reads only each record's key
			// fields, then every shard decodes just the errata it owns.
			if snap.db, snap.cluster, err = shard.PartitionStore(sv, s.opts.Shards); err != nil {
				return nil, err
			}
			frags, err = sv.FragmentsFor(snap.db.Errata())
		} else {
			if snap.db, err = sv.Database(); err != nil {
				return nil, err
			}
			if lists := sv.IndexLists(); lists != nil && s.opts.Shards == 0 {
				// Postings stay disk-resident: the index walks the file's
				// arrays (or the mapping) directly via index.List spans.
				if snap.ix, err = index.FromLists(snap.db, lists); err != nil {
					return nil, err
				}
			}
			frags, err = sv.Fragments()
		}
		if err != nil {
			return nil, err
		}
	}
	switch {
	case snap.cluster != nil || snap.ix != nil:
		// Supplied by the store.
	case s.opts.Shards > 0:
		// A decoded database (given, or memoized by the store — e.g. the
		// caller built an ingester over it): partition the shared
		// pointers rather than decoding every record a second time.
		snap.cluster = shard.Partition(snap.db, s.opts.Shards)
	default:
		snap.ix = index.Build(snap.db)
	}
	if snap.cluster != nil {
		for _, sh := range snap.cluster.Shards {
			sh.IX.Instrument(s.reg)
		}
	} else {
		snap.ix.Instrument(s.reg)
	}
	if frags == nil {
		// Fragments are an optimization: on a (never-observed) marshal
		// failure frags stays nil and the snapshot serves through the
		// encoding/json fallback.
		frags, _ = store.BuildFragments(snap.db)
	}
	snap.frags = frags
	snap.stats = snap.db.ComputeStats()
	return snap, nil
}

// SwapDelta installs db as the served snapshot by merging against the
// currently served one instead of rebuilding from scratch: single-index
// mode runs index.MergeDelta from the previous snapshot's index,
// sharded mode repartitions via shard.Repartition and rebuilds only the
// affected shards. db must honor the delta sharing contract with the
// currently served database (see index.MergeDelta): any *Erratum shared
// by pointer is completely unchanged, surviving entries keep their
// relative order. internal/ingest's copy-on-write Apply produces
// exactly such databases.
//
// Unlike Swap, the merge runs under swapMu: the previous snapshot must
// still be the installed one when the merged successor lands, otherwise
// two concurrent delta swaps could each merge against the same
// predecessor and the loser would silently drop the winner's documents.
// The merge is index-only (annotation walks happen per new entry), so
// the critical section stays far below a cold Build. The caller must
// not mutate db after SwapDelta.
func (s *Server) SwapDelta(db *core.Database) uint64 {
	start := time.Now()
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	prev := s.snap.Load()
	snap := &snapshot{db: db, stats: db.ComputeStats()}
	if prev != nil && prev.region != nil {
		// The delta database shares surviving entries by pointer with the
		// previous snapshot, so its strings may alias the mapping: the
		// successor must keep the region alive. prev is the installed
		// snapshot and owns a reference, so the retain cannot race a
		// final release.
		prev.region.TryRetain()
		snap.region = prev.region
	}
	if s.opts.Shards > 0 {
		var pc *shard.Cluster
		if prev != nil {
			pc = prev.cluster
		}
		cluster, rebuilt := shard.Repartition(pc, db, s.opts.Shards)
		snap.cluster = cluster
		s.shardRebuilds.Add(int64(rebuilt))
		// Instrument only freshly built shards: a reused shard's index is
		// concurrently serving reads, and Instrument writes into it.
		for i, sh := range cluster.Shards {
			if pc == nil || i >= len(pc.Shards) || pc.Shards[i] != sh {
				sh.IX.Instrument(s.reg)
			}
		}
	} else {
		var pix *index.Index
		if prev != nil {
			pix = prev.ix
		}
		snap.ix = index.MergeDelta(pix, db)
		snap.ix.Instrument(s.reg)
	}
	// Delta fragment build: entries shared by pointer with the previous
	// snapshot reuse its fragment bytes, so the cost scales with the
	// delta like the index merge does.
	var prevFrags *store.Fragments
	if prev != nil {
		prevFrags = prev.frags
	}
	if frags, err := store.BuildFragmentsDelta(prevFrags, db); err == nil {
		snap.frags = frags
	}
	snap.gen = s.gen.Add(1)
	s.snap.Store(snap)
	// Drop the displaced snapshot's own region reference; the successor
	// holds the one retained above, so the mapping cannot reach zero
	// here.
	prev.release()
	s.swaps.Inc()
	s.deltaSwaps.Inc()
	s.swapLag.Observe(time.Since(start).Seconds())
	return snap.gen
}

// Generation returns the generation id of the currently served
// snapshot.
func (s *Server) Generation() uint64 { return s.snap.Load().gen }

// Stats returns the precomputed corpus statistics of the currently
// served snapshot — the same numbers /v1/stats reports, without a
// request (and, for store-backed servers, without decoding anything).
func (s *Server) Stats() core.Stats { return s.snap.Load().stats }

// acquireSnap loads the current snapshot and, when it is backed by a
// mapped region, retains the region for the caller. The retry loop
// closes the race where a swap displaces the loaded snapshot and
// releases its region (possibly unmapping it) between the Load and the
// retain: a failed TryRetain means the snapshot is already dead, so
// the caller simply loads the successor. Callers must release() the
// returned snapshot when done.
func (s *Server) acquireSnap() *snapshot {
	for {
		sn := s.snap.Load()
		if sn == nil || sn.region == nil || sn.region.TryRetain() {
			return sn
		}
	}
}

// Reload produces a fresh snapshot via Options.ReloadSource (preferred)
// or Options.Reloader and swaps it in, returning the new generation.
// Reloads are serialized: concurrent calls run one at a time. Returns
// an error when neither callback is configured or the callback fails
// (the served snapshot is untouched).
func (s *Server) Reload(ctx context.Context) (uint64, error) {
	if s.opts.Reloader == nil && s.opts.ReloadSource == nil {
		return 0, errors.New("serve: no reloader configured")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if s.opts.ReloadSource != nil {
		r, err := s.opts.ReloadSource(ctx)
		if err != nil {
			return 0, fmt.Errorf("serve: reload: %w", err)
		}
		gen, err := s.SwapReader(r)
		// The snapshot holds its own region reference; dropping the
		// opener's here means the mapping lives exactly as long as
		// snapshots using it do.
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, fmt.Errorf("serve: reload: %w", err)
		}
		return gen, nil
	}
	db, err := s.opts.Reloader(ctx)
	if err != nil {
		return 0, fmt.Errorf("serve: reload: %w", err)
	}
	return s.Swap(db), nil
}

// Registry returns the registry backing the server's instruments (the
// one passed in Options.Observability, or the private default).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the routed HTTP handler with request timeouts
// applied. Profiling routes, when enabled, bypass the timeout.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /v1/errata", s.route("errata", s.handleErrata))
	mux.Handle("GET /v1/errata/{key}", s.route("erratum", s.handleErratum))
	mux.Handle("GET /v1/stats", s.route("stats", s.handleStats))
	mux.Handle("GET /v1/metrics.json", s.route("metrics_json", s.handleMetricsJSON))
	mux.Handle("GET /healthz", s.route("healthz", s.handleHealthz))
	mux.Handle("GET /metrics", s.route("metrics", s.handleMetrics))
	mux.Handle("POST /v1/admin/reload", s.route("admin_reload", s.handleReload))
	mux.Handle("POST /v1/admin/ingest", s.route("admin_ingest", s.handleIngest))
	mux.Handle("GET /errata", s.route("redirect", s.handleRedirect))
	mux.Handle("GET /errata/{key}", s.route("redirect", s.handleRedirect))
	mux.Handle("GET /stats", s.route("redirect", s.handleRedirect))
	h := http.Handler(mux)
	if s.opts.EnableProfiling {
		outer := http.NewServeMux()
		outer.HandleFunc("GET /debug/pprof/", pprof.Index)
		outer.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		outer.Handle("/", h)
		h = outer
	}
	return h
}

// handleRedirect answers a legacy unversioned path with a permanent
// redirect to its /v1 equivalent, query string included.
func (s *Server) handleRedirect(w http.ResponseWriter, r *http.Request) {
	target := "/v1" + r.URL.EscapedPath()
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	http.Redirect(w, r, target, http.StatusPermanentRedirect)
}

// Serve listens on addr until ctx is cancelled, then shuts down
// gracefully, draining in-flight requests within the shutdown grace.
func (s *Server) Serve(ctx context.Context, addr string) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), s.opts.ShutdownGrace)
		defer cancel()
		done <- srv.Shutdown(shutdownCtx)
	}()
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-done
}

// statusRecorder captures the response status for error counting while
// forwarding optional ResponseWriter capabilities to the wrapped
// writer.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so streaming handlers keep
// working behind the instrumentation wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	m := s.endpoints[name]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		m.requests.Inc()
		m.latency.Observe(time.Since(start).Seconds())
		if rec.status >= 400 {
			m.errors.Inc()
		}
	}
}

// route wraps one endpoint in the per-request timeout and then the
// instrumentation, in that order. The timeout must sit inside the
// instrumentation: http.TimeoutHandler writes its 503 on the real
// writer while the wrapped handler only ever sees a buffered one, so a
// single TimeoutHandler around the whole mux (outside instrument) left
// timeouts invisible to rememberr_http_errors_total — the recorder saw
// only the inner handler's doomed 200.
func (s *Server) route(name string, h http.HandlerFunc) http.Handler {
	inner := http.TimeoutHandler(h, s.opts.RequestTimeout, `{"error":"request timed out"}`)
	return s.instrument(name, inner.ServeHTTP)
}

// marshalJSON is the marshal function behind every handler response. It
// is a seam for tests only: production always points at json.Marshal.
var marshalJSON = json.Marshal

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// writeMarshalError answers a failed response marshal: a 500 carrying a
// static body, so the failure lands in the error metrics instead of a
// silently empty 200.
func writeMarshalError(w http.ResponseWriter, err error) {
	_ = err
	writeJSON(w, http.StatusInternalServerError, []byte(`{"error":"response encoding failed"}`))
}

func writeError(w http.ResponseWriter, status int, msg string) {
	body, err := marshalJSON(map[string]string{"error": msg})
	if err != nil {
		writeMarshalError(w, err)
		return
	}
	writeJSON(w, status, body)
}

// filterParams lists every /errata query parameter in canonical order;
// the cache key is built by walking this list, so two requests with
// reordered parameters (or reordered values of a multi-valued
// parameter) share one cache entry.
var filterParams = []string{
	"vendor", "doc", "category", "any_category", "class", "trigger",
	"min_triggers", "msr", "title", "complex", "sim_only", "workaround",
	"fix", "disclosed_from", "disclosed_to", "unique", "limit", "offset",
}

// multiValued marks the parameters where each occurrence adds another
// filter. Every other parameter is single-valued, and repeating one is
// a 400: silently using only the first value turned
// ?vendor=Intel&vendor=AMD into an Intel-only result.
var multiValued = map[string]bool{
	"category": true, "any_category": true, "class": true,
	"trigger": true, "msr": true,
}

// errataRequest is one compiled /v1/errata query: a list of filters to
// apply to an index-backed query plus pagination, decoupled from any
// particular index so the same request can run against the single
// snapshot index or fan out across every shard's index.
type errataRequest struct {
	filters []func(*index.Query)
	unique  bool
	limit   int
	offset  int
	key     string // canonicalized filter set
}

// run executes the request's filters against one index and returns the
// full (unpaginated) match list.
func (req *errataRequest) run(ix *index.Index) []*core.Erratum {
	q := ix.Query()
	for _, f := range req.filters {
		f(q)
	}
	if req.unique {
		return q.Unique()
	}
	return q.All()
}

func parseBool(s string) (bool, error) {
	switch strings.ToLower(s) {
	case "1", "true", "yes":
		return true, nil
	case "0", "false", "no":
		return false, nil
	default:
		return false, fmt.Errorf("bad boolean %q", s)
	}
}

const dateFmt = "2006-01-02"

// parseFilters compiles URL query parameters into an index-independent
// filter request plus a canonical cache key. Unknown parameters are
// rejected so that typos surface as 400s instead of silently matching
// everything, and repeating a single-valued parameter is a 400 instead
// of a silent first-value win.
func parseFilters(values url.Values) (*errataRequest, error) {
	for p := range values {
		known := false
		for _, k := range filterParams {
			if p == k {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("unknown parameter %q", p)
		}
	}

	req := &errataRequest{unique: true, limit: 100}
	var keyParts []string
	// canon appends one cache-key part; multi-valued parameters are
	// sorted (on a copy — filters may alias vals) so value order never
	// fragments the cache. Positionally distinct parameters must go in
	// under distinct param names: collapsing disclosed_from/_to into one
	// sorted "disclosed" part made swapped date ranges collide onto a
	// single cache entry.
	canon := func(param string, vals ...string) {
		vs := append([]string(nil), vals...)
		sort.Strings(vs)
		keyParts = append(keyParts, param+"="+strings.Join(vs, ","))
	}

	for _, param := range filterParams {
		vals, ok := values[param]
		if !ok || len(vals) == 0 {
			continue
		}
		if !multiValued[param] && len(vals) > 1 {
			return nil, fmt.Errorf("parameter %q is single-valued but was given %d times", param, len(vals))
		}
		switch param {
		case "vendor":
			v, err := core.ParseVendor(vals[0])
			if err != nil {
				return nil, err
			}
			req.filters = append(req.filters, func(q *index.Query) { q.Vendor(v) })
			canon(param, v.String())
		case "doc":
			doc := vals[0]
			req.filters = append(req.filters, func(q *index.Query) { q.InDocument(doc) })
			canon(param, doc)
		case "category":
			for _, c := range vals {
				req.filters = append(req.filters, func(q *index.Query) { q.WithCategory(c) })
			}
			canon(param, vals...)
		case "any_category":
			// Each occurrence is one disjunctive group of
			// comma-separated categories; groups compose conjunctively.
			groups := make([]string, 0, len(vals))
			for _, group := range vals {
				ids := splitList(group)
				req.filters = append(req.filters, func(q *index.Query) { q.AnyCategory(ids...) })
				sorted := append([]string(nil), ids...)
				sort.Strings(sorted)
				groups = append(groups, strings.Join(sorted, ","))
			}
			canon(param, groups...)
		case "class":
			for _, c := range vals {
				req.filters = append(req.filters, func(q *index.Query) { q.WithClass(c) })
			}
			canon(param, vals...)
		case "trigger":
			triggers := vals
			req.filters = append(req.filters, func(q *index.Query) { q.WithAllTriggers(triggers...) })
			canon(param, vals...)
		case "min_triggers":
			n, err := strconv.Atoi(vals[0])
			if err != nil {
				return nil, fmt.Errorf("bad min_triggers %q", vals[0])
			}
			req.filters = append(req.filters, func(q *index.Query) { q.MinTriggers(n) })
			canon(param, strconv.Itoa(n))
		case "msr":
			for _, m := range vals {
				req.filters = append(req.filters, func(q *index.Query) { q.ObservableIn(m) })
			}
			canon(param, vals...)
		case "title":
			title := vals[0]
			req.filters = append(req.filters, func(q *index.Query) { q.TitleContains(title) })
			canon(param, strings.ToLower(title))
		case "complex":
			b, err := parseBool(vals[0])
			if err != nil {
				return nil, err
			}
			if b {
				req.filters = append(req.filters, func(q *index.Query) { q.Complex() })
			}
			canon(param, strconv.FormatBool(b))
		case "sim_only":
			b, err := parseBool(vals[0])
			if err != nil {
				return nil, err
			}
			if b {
				req.filters = append(req.filters, func(q *index.Query) { q.SimulationOnly() })
			}
			canon(param, strconv.FormatBool(b))
		case "workaround":
			wc, err := core.ParseWorkaroundCategory(vals[0])
			if err != nil {
				return nil, err
			}
			req.filters = append(req.filters, func(q *index.Query) { q.Workaround(wc) })
			canon(param, wc.String())
		case "fix":
			fx, err := core.ParseFixStatus(vals[0])
			if err != nil {
				return nil, err
			}
			req.filters = append(req.filters, func(q *index.Query) { q.Fix(fx) })
			canon(param, fx.String())
		case "disclosed_from", "disclosed_to":
			// Handled together below; canonicalized there.
		case "unique":
			b, err := parseBool(vals[0])
			if err != nil {
				return nil, err
			}
			req.unique = b
			canon(param, strconv.FormatBool(b))
		case "limit":
			n, err := strconv.Atoi(vals[0])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad limit %q", vals[0])
			}
			if n > 1000 {
				n = 1000
			}
			req.limit = n
			canon(param, strconv.Itoa(n))
		case "offset":
			n, err := strconv.Atoi(vals[0])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad offset %q", vals[0])
			}
			req.offset = n
			canon(param, strconv.Itoa(n))
		}
	}

	fromS, toS := values.Get("disclosed_from"), values.Get("disclosed_to")
	if fromS != "" || toS != "" {
		from := time.Time{}
		to := time.Date(9999, 12, 31, 0, 0, 0, 0, time.UTC)
		var err error
		if fromS != "" {
			if from, err = time.Parse(dateFmt, fromS); err != nil {
				return nil, fmt.Errorf("bad disclosed_from %q", fromS)
			}
		}
		if toS != "" {
			if to, err = time.Parse(dateFmt, toS); err != nil {
				return nil, fmt.Errorf("bad disclosed_to %q", toS)
			}
		}
		req.filters = append(req.filters, func(q *index.Query) { q.DisclosedBetween(from, to) })
		// from and to stay under separate key parts: they are positional,
		// and a combined sorted part served one range's cached body for
		// the swapped (empty) range.
		canon("disclosed_from", from.Format(dateFmt))
		canon("disclosed_to", to.Format(dateFmt))
	}

	sort.Strings(keyParts)
	req.key = strings.Join(keyParts, "&")
	return req, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// The canonical response representations (summary rows, per-occurrence
// details) live in internal/store: the same DTOs back this package's
// json.Marshal fallback path, the precomputed fragments stitched on the
// hot path, and the fragment region of FormatVersion 2 files — one
// definition, so the paths cannot drift apart byte-wise.

// cacheKey scopes a canonical filter key to one snapshot generation.
// Entries written by older generations can never match a newer
// snapshot's lookups, so a swap invalidates the response cache without
// flushing it — while requests already executing against the old
// snapshot still hit their own generation's entries.
func cacheKey(gen uint64, filterKey string) string {
	return "g" + strconv.FormatUint(gen, 10) + "|" + filterKey
}

// scatterGather fans the compiled request out to every shard
// concurrently, records per-shard fan-out latency, and merges the
// shard-local results into the globally ordered page plus the global
// total.
func (s *Server) scatterGather(c *shard.Cluster, req *errataRequest) ([]*core.Erratum, int) {
	lists := make([][]*core.Erratum, len(c.Shards))
	var wg sync.WaitGroup
	for i, sh := range c.Shards {
		wg.Add(1)
		go func(i int, sh *shard.Shard) {
			defer wg.Done()
			start := time.Now()
			lists[i] = req.run(sh.IX)
			s.shardLat[sh.ID].Observe(time.Since(start).Seconds())
		}(i, sh)
	}
	wg.Wait()
	page, total := c.Merge(lists, req.unique, req.offset, req.limit)
	s.merges.Inc()
	s.mergeRows.Add(int64(len(page)))
	return page, total
}

func (s *Server) handleErrata(w http.ResponseWriter, r *http.Request) {
	snap := s.acquireSnap()
	defer snap.release()
	req, err := parseFilters(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := cacheKey(snap.gen, req.key)
	if body, ok := s.cache.get(key); ok {
		writeJSON(w, http.StatusOK, body)
		return
	}
	var page []*core.Erratum
	var total int
	if snap.cluster != nil {
		page, total = s.scatterGather(snap.cluster, req)
	} else {
		matches := req.run(snap.ix)
		total = len(matches)
		page = matches
		if req.offset < len(page) {
			page = page[req.offset:]
		} else {
			page = nil
		}
		if len(page) > req.limit {
			page = page[:req.limit]
		}
	}
	if body, ok := stitchErrataPage(snap, req, page, total); ok {
		s.cache.put(key, body)
		writeJSON(w, http.StatusOK, body)
		return
	}
	summaries := make([]store.ErratumSummary, 0, len(page))
	for _, e := range page {
		summaries = append(summaries, store.Summarize(snap.db, e))
	}
	body, err := marshalJSON(struct {
		Total      int                    `json:"total"`
		Offset     int                    `json:"offset"`
		Count      int                    `json:"count"`
		Unique     bool                   `json:"unique"`
		Generation uint64                 `json:"generation"`
		Errata     []store.ErratumSummary `json:"errata"`
	}{total, req.offset, len(summaries), req.unique, snap.gen, summaries})
	if err != nil {
		writeMarshalError(w, err)
		return
	}
	s.cache.put(key, body)
	writeJSON(w, http.StatusOK, body)
}

// bufPool holds reusable response-stitching buffers. Buffers grow to
// the largest response they ever carry and are recycled, so the steady
// state stitches without allocating.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// stitchErrataPage assembles the /v1/errata response from precomputed
// summary fragments, byte-identical to the json.Marshal fallback. The
// returned body is an exact-size copy (it outlives the request in the
// response cache); the working buffer is pooled. ok is false when any
// fragment is missing — the caller falls back to marshaling.
func stitchErrataPage(snap *snapshot, req *errataRequest, page []*core.Erratum, total int) (body []byte, ok bool) {
	if snap.frags == nil {
		return nil, false
	}
	for _, e := range page {
		if snap.frags.Summary(e) == nil {
			return nil, false
		}
	}
	bp := bufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	buf = append(buf, `{"total":`...)
	buf = strconv.AppendInt(buf, int64(total), 10)
	buf = append(buf, `,"offset":`...)
	buf = strconv.AppendInt(buf, int64(req.offset), 10)
	buf = append(buf, `,"count":`...)
	buf = strconv.AppendInt(buf, int64(len(page)), 10)
	buf = append(buf, `,"unique":`...)
	buf = strconv.AppendBool(buf, req.unique)
	buf = append(buf, `,"generation":`...)
	buf = strconv.AppendUint(buf, snap.gen, 10)
	buf = append(buf, `,"errata":[`...)
	for i, e := range page {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, snap.frags.Summary(e)...)
	}
	buf = append(buf, "]}"...)
	body = make([]byte, len(buf))
	copy(body, buf)
	*bp = buf
	bufPool.Put(bp)
	return body, true
}

func (s *Server) handleErratum(w http.ResponseWriter, r *http.Request) {
	snap := s.acquireSnap()
	defer snap.release()
	key := r.PathValue("key")
	if s.stitchErratum(w, snap, key) {
		return
	}
	var occurrences []*core.Erratum
	if snap.cluster != nil {
		// Point lookups route to the single shard owning the key.
		occurrences = snap.cluster.ByKey(key)
	} else {
		occurrences = snap.ix.ByKey(key)
	}
	if len(occurrences) == 0 {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no erratum with key %q", key))
		return
	}
	details := make([]store.ErratumDetail, 0, len(occurrences))
	for _, e := range occurrences {
		details = append(details, store.DetailOf(snap.db, e))
	}
	body, err := marshalJSON(struct {
		Key         string                `json:"key"`
		Occurrences int                   `json:"occurrences"`
		Generation  uint64                `json:"generation"`
		Entries     []store.ErratumDetail `json:"entries"`
	}{key, len(details), snap.gen, details})
	if err != nil {
		writeMarshalError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// stitchErratum is the zero-allocation point-lookup path: it assembles
// the /v1/errata/{key} response from the snapshot's precomputed detail
// fragments into a pooled buffer, byte-identical to the json.Marshal
// fallback, and reports whether it handled the request. It declines
// (returning false, writing nothing) when fragments are unavailable or
// the key is unknown, leaving the fallback to marshal or 404.
func (s *Server) stitchErratum(w http.ResponseWriter, snap *snapshot, key string) bool {
	if snap.frags == nil {
		return false
	}
	keyJSON := snap.frags.KeyJSON(key)
	if keyJSON == nil {
		return false
	}
	// Resolve occurrences without allocating: ordinal postings in
	// single-index mode, the owning shard's postings when sharded.
	var ix *index.Index
	if snap.cluster != nil {
		sh := snap.cluster.Shards[shard.Owner(key, snap.cluster.N)]
		ix = sh.IX
	} else {
		ix = snap.ix
	}
	ords := ix.KeyList(key)
	if ords == nil || ords.Len() == 0 {
		return false
	}
	n := ords.Len()
	for i := 0; i < n; i++ {
		if snap.frags.Detail(ix.Entry(ords.At(i))) == nil {
			return false
		}
	}
	bp := bufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	buf = append(buf, `{"key":`...)
	buf = append(buf, keyJSON...)
	buf = append(buf, `,"occurrences":`...)
	buf = strconv.AppendInt(buf, int64(n), 10)
	buf = append(buf, `,"generation":`...)
	buf = strconv.AppendUint(buf, snap.gen, 10)
	buf = append(buf, `,"entries":[`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, snap.frags.Detail(ix.Entry(ords.At(i)))...)
	}
	buf = append(buf, "]}"...)
	writeJSON(w, http.StatusOK, buf)
	*bp = buf
	bufPool.Put(bp)
	return true
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	snap := s.acquireSnap()
	defer snap.release()
	st := snap.stats
	body, err := marshalJSON(struct {
		Documents    int    `json:"documents"`
		IntelDocs    int    `json:"intel_documents"`
		AMDDocs      int    `json:"amd_documents"`
		Total        int    `json:"errata"`
		IntelTotal   int    `json:"intel_errata"`
		AMDTotal     int    `json:"amd_errata"`
		Unique       int    `json:"unique"`
		IntelUnique  int    `json:"intel_unique"`
		AMDUnique    int    `json:"amd_unique"`
		Annotated    int    `json:"annotated"`
		Unclassified int    `json:"unclassified"`
		Categories   int    `json:"categories"`
		Generation   uint64 `json:"generation"`
	}{
		st.Documents, st.IntelDocs, st.AMDDocs,
		st.Total, st.IntelTotal, st.AMDTotal,
		st.Unique, st.IntelUnique, st.AMDUnique,
		st.Annotated, st.Unclassified,
		snap.db.Scheme.NumCategories(taxonomy.Kind(-1)),
		snap.gen,
	})
	if err != nil {
		writeMarshalError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	snap := s.acquireSnap()
	defer snap.release()
	body, err := marshalJSON(struct {
		Status     string `json:"status"`
		Errata     int    `json:"errata"`
		Unique     int    `json:"unique"`
		Generation uint64 `json:"generation"`
	}{"ok", snap.size(), snap.uniqueCount(), snap.gen})
	if err != nil {
		writeMarshalError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// handleReload swaps in a freshly produced database with zero downtime.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.opts.Reloader == nil && s.opts.ReloadSource == nil {
		writeError(w, http.StatusNotImplemented, "reload is not configured on this server")
		return
	}
	gen, err := s.Reload(r.Context())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	body, err := marshalJSON(struct {
		Status     string `json:"status"`
		Generation uint64 `json:"generation"`
	}{"ok", gen})
	if err != nil {
		writeMarshalError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// maxIngestBytes bounds one POST /v1/admin/ingest body; the largest
// real specification updates render to a few hundred kilobytes, so
// 16 MiB is generous without letting a runaway client exhaust memory.
const maxIngestBytes = 16 << 20

// handleIngest feeds one specification-update document into the live
// corpus via Options.Ingest and reports the resulting generation.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.opts.Ingest == nil {
		writeError(w, http.StatusNotImplemented, "ingest is not configured on this server")
		return
	}
	text, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxIngestBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds the %d-byte ingest limit", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
		return
	}
	sum, err := s.opts.Ingest(r.Context(), string(text))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	body, err := marshalJSON(struct {
		Status string `json:"status"`
		IngestSummary
	}{"ok", sum})
	if err != nil {
		writeMarshalError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// EndpointSnapshot is one endpoint's counters at a point in time.
type EndpointSnapshot struct {
	Requests  int64 `json:"requests"`
	Errors    int64 `json:"errors"`
	LatencyNS int64 `json:"latency_ns"`
}

// CacheSnapshot is the cache counters at a point in time.
type CacheSnapshot struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

// MetricsSnapshot is the full /v1/metrics.json payload.
type MetricsSnapshot struct {
	Endpoints map[string]EndpointSnapshot `json:"endpoints"`
	Cache     CacheSnapshot               `json:"cache"`
}

// Metrics returns a snapshot of the server's instruments, read back
// from the obs registry; the same data backs /v1/metrics.json, and the
// raw instruments are exposed in Prometheus form at /metrics.
func (s *Server) Metrics() MetricsSnapshot {
	snap := MetricsSnapshot{Endpoints: make(map[string]EndpointSnapshot, len(s.endpoints))}
	for name, m := range s.endpoints {
		snap.Endpoints[name] = EndpointSnapshot{
			Requests:  m.requests.Value(),
			Errors:    m.errors.Value(),
			LatencyNS: int64(m.latency.Snapshot().Sum * 1e9),
		}
	}
	hits, misses, evictions, entries := s.cache.stats()
	snap.Cache = CacheSnapshot{
		Hits: hits, Misses: misses, Evictions: evictions,
		Entries: entries, Capacity: s.cache.max,
	}
	return snap
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	body, err := marshalJSON(s.Metrics())
	if err != nil {
		writeMarshalError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.reg.WritePrometheus(w)
}
