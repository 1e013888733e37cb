package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	rememberr "repro"
	"repro/internal/annotate"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dedup"
	"repro/internal/index"
	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/specdoc"
	"repro/internal/store"
	"repro/internal/textsim"
	"repro/internal/timeline"
)

// The traced run calls each layer's exported functions in-process and
// records a span around every call. Spans stay in memory and are
// written to .bench_build/traces/<workload>.json when the run ends.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans; a tracer with off set records nothing, so the
// same pass code runs untraced to measure the tracing overhead.
type tracer struct {
	off   bool
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t.off {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// durations returns the durations of every span called name.
func (t *tracer) durations(name string) []time.Duration {
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, s.dur())
		}
	}
	return ds
}

// coverage is the share of the root spans' time covered by leaf spans,
// the calls into the program's layers; the rest is benchmark glue.
func (t *tracer) coverage() float64 {
	parent := make([]bool, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			parent[s.Parent] = true
		}
	}
	var roots, leaves time.Duration
	for i, s := range t.spans {
		switch {
		case s.Parent < 0:
			roots += s.dur()
		case !parent[i]:
			leaves += s.dur()
		}
	}
	if roots == 0 {
		return 0
	}
	return float64(leaves) / float64(roots)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// passes alternates traced and untraced runs of pass until budget has
// elapsed, at least atLeast and at most atMost times each, and records
// the tracing overhead: the traced passes' median wall time over the
// untraced passes'.
func (r *run) passes(tr *tracer, budget time.Duration, atLeast, atMost int, pass func(*tracer) error) error {
	off := &tracer{off: true}
	var traced, untraced []time.Duration
	deadline := time.Now().Add(budget)
	for i := 0; i < atMost && (i < atLeast || time.Now().Before(deadline)); i++ {
		order := []*tracer{tr, off}
		if i%2 == 1 { // alternate which side goes first
			order[0], order[1] = off, tr
		}
		for _, t := range order {
			start := time.Now()
			if err := pass(t); err != nil {
				return err
			}
			if t == tr {
				traced = append(traced, time.Since(start))
			} else {
				untraced = append(untraced, time.Since(start))
			}
		}
	}
	r.metric("trace.overhead_pct", 100*(float64(median(traced))/float64(median(untraced))-1))
	r.config["traced_passes"] = len(traced)
	return nil
}

// buildOut is what one traced build pass produced.
type buildOut struct {
	file      []byte
	reviewed  int
	confirmed int
	decisions int
}

// buildPass mirrors the build's stage graph (corpus, render, parse,
// dedup, annotate, timeline, validate) at the default parallelism and
// encodes the result as the CLI's v2 file, one span per layer call.
func buildPass(tr *tracer, seed int64) (*buildOut, error) {
	const par = 0 // all CPUs, the CLI default
	root := tr.begin("build", -1)
	defer tr.end(root)

	sp := tr.begin("corpus.generate", root)
	gt, err := corpus.Generate(seed)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("specdoc.render", root)
	texts := renderTexts(gt, par)
	tr.end(sp)
	sp = tr.begin("specdoc.parse", root)
	db, _, err := specdoc.ParseAllParallel(texts, par)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("dedup.deduplicate", root)
	truthKey := make(map[string]string)
	for _, e := range gt.DB.Errata() {
		truthKey[corpus.EntryRef(e)] = e.Key
	}
	dopts := dedup.Options{
		Metric: textsim.MetricJaccard,
		Oracle: func(a, b *core.Erratum) bool {
			ka, kb := truthKey[corpus.EntryRef(a)], truthKey[corpus.EntryRef(b)]
			return ka != "" && ka == kb
		},
		Parallelism: par,
	}
	dopts.SetThreshold(0.6)
	dres, err := dedup.Deduplicate(db, dopts)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("annotate.run", root)
	truthAnn := make(map[string]*core.Annotation)
	for _, e := range gt.DB.Errata() {
		ann := e.Ann
		truthAnn[corpus.EntryRef(e)] = &ann
	}
	aopts := annotate.DefaultOptions()
	aopts.Seed = seed
	aopts.Workers = par
	ares, err := annotate.Run(db, classify.NewEngineConfig(classify.Config{Prefilter: true, Memo: true}),
		func(e *core.Erratum) *core.Annotation { return truthAnn[corpus.EntryRef(e)] }, aopts)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("timeline.infer", root)
	timeline.InferDisclosures(db, timeline.Options{Interpolate: true})
	tr.end(sp)
	sp = tr.begin("core.validate", root)
	err = db.Validate()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("store.encode_v2", root)
	file, err := store.EncodeV2(db, store.V2Options{Postings: true, Fragments: true})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &buildOut{file: file, reviewed: len(dres.Reviewed), confirmed: dres.ConfirmedPairs, decisions: ares.HumanDecisions}, nil
}

var buildLayers = []string{
	"corpus.generate", "specdoc.render", "specdoc.parse", "dedup.deduplicate",
	"annotate.run", "timeline.infer", "core.validate", "store.encode_v2",
}

// Layer calls a traced pass makes per workload.
const (
	replayOps   = 3000 // requests one serve pass replays
	ingestPosts = 12   // POSTs one ingest pass applies
	probeReads  = 300  // requests of the serve probe on the other workloads
	probePosts  = 2    // POSTs of the ingest probe on the other workloads
)

// traced is the traced run of every workload. It measures every layer:
// the workload's own layers in alternating traced and untraced passes
// over the workload's inputs (which also give trace.overhead_pct), and
// the other layers once, on a short probe over the same database, so
// every per-layer metric is a measured number. The serve and ingest
// runs build the file they serve with the traced in-process build;
// the build run serves and ingests a few requests on its output.
func traced(r *run) error {
	tr := newTracer()
	path, err := r.buildLayer(tr)
	if err != nil {
		return err
	}
	if err := r.pipelineLayer(tr, path); err != nil {
		return err
	}
	rd, db, err := openDB(path)
	if err != nil {
		return err
	}
	defer rd.Close()
	tf, err := newTraffic(r.workload, db, r.seed, r.seconds)
	if err != nil {
		return err
	}
	if err := r.serveLayer(tr, path, rd, db, tf); err != nil {
		return err
	}
	if err := r.ingestLayer(tr, path, db, tf); err != nil {
		return err
	}
	client, reads, err := r.probeHTTP(path, tf)
	if err != nil {
		return err
	}
	handler, err := r.handlerP50(path, tf.shards, tf.warm, reads)
	if err != nil {
		return err
	}
	r.metric("http.overhead_us", us(client-handler))
	for _, k := range []opKind{opLookup, opList, opStats} {
		r.metric("serve."+k.String()+"_us", us(median(tr.durations("serve."+k.String()))))
	}
	for _, name := range []string{"store.open", "serve.new", "ingest.apply", "serve.swap_delta", "shard.repartition", "store.fragments_delta", "pipeline.replay"} {
		r.metric(name+"_ms", ms(median(tr.durations(name))))
	}
	r.metric("index.query_us", us(median(tr.durations("index.query"))))
	r.metric("shard.fanout_us", us(median(tr.slowestShard())))
	r.metric("shard.merge_us", us(median(tr.durations("shard.merge"))))
	cov := tr.coverage()
	r.metric("trace.coverage_pct", 100*cov)
	if cov < 0.9 {
		r.config["coverage_flag"] = "layer spans cover under 90% of the traced total"
		fmt.Fprintf(os.Stderr, "bench: warning: layer spans cover %.1f%% of the traced total\n", 100*cov)
	}
	return tr.write(filepath.Join(r.root, ".bench_build", "traces", r.workload+".json"))
}

// buildLayer measures the build layers and returns the path of the v2
// file the rest of the run uses. The build workload runs alternating
// traced and untraced build passes and checks the traced output against
// a cold child build; the other workloads build their file with one
// traced pass.
func (r *run) buildLayer(tr *tracer) (string, error) {
	path := r.path("db.v2")
	var out *buildOut
	pass := func(t *tracer) error {
		o, err := buildPass(t, r.seed)
		if err == nil && !t.off {
			out = o
		}
		r.attempted++
		return err
	}
	if r.workload == "build" {
		if err := r.passes(tr, r.seconds/2, 2, 8, pass); err != nil {
			return "", err
		}
		if _, err := r.buildDB(); err != nil {
			return "", err
		}
		cold, err := os.ReadFile(path)
		if err != nil {
			return "", err
		}
		r.check("traced in-process build output equals the cold build output", string(out.file) == string(cold), "")
	} else {
		if err := pass(tr); err != nil {
			return "", err
		}
		if err := os.WriteFile(path, out.file, 0o644); err != nil {
			return "", err
		}
	}
	for _, l := range buildLayers {
		r.metric(l+"_ms", ms(median(tr.durations(l))))
	}
	r.metric("dedup.reviewed_pairs", float64(out.reviewed))
	r.metric("dedup.confirmed_pairs", float64(out.confirmed))
	r.metric("dedup.confirm_ratio", float64(out.confirmed)/float64(out.reviewed))
	r.metric("annotate.human_decisions", float64(out.decisions))
	r.metric("store.file_bytes", float64(len(out.file)))
	return path, nil
}

// pipelineLayer populates a pipeline cache in-process and times warm
// replays from it; the replayed database must encode to the built file.
func (r *run) pipelineLayer(tr *tracer, path string) error {
	dir := r.path("pipecache")
	opts := []rememberr.Option{rememberr.WithSeed(r.seed), rememberr.WithCache(dir)}
	root := tr.begin("pipeline", -1)
	sp := tr.begin("pipeline.populate", root)
	_, _, err := rememberr.Build(opts...)
	tr.end(sp)
	var warm *rememberr.Database
	for i := 0; i < warmRebuilds && err == nil; i++ {
		sp := tr.begin("pipeline.replay", root)
		warm, _, err = rememberr.Build(opts...)
		tr.end(sp)
		r.attempted++
	}
	tr.end(root)
	if err != nil {
		return err
	}
	file, err := store.EncodeV2(warm.Core(), store.V2Options{Postings: true, Fragments: true})
	if err != nil {
		return err
	}
	built, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	r.check("warm in-process replay output equals the built file", string(file) == string(built), "")
	size, err := dirBytes(dir)
	r.metric("pipeline.cache_bytes", float64(size))
	return err
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// sink is a reusable ResponseWriter that discards the body and keeps
// the status, so replayed handler calls cost no recorder allocation.
type sink struct {
	h    http.Header
	code int
}

func (s *sink) Header() http.Header { return s.h }
func (s *sink) WriteHeader(c int) {
	if s.code == 0 {
		s.code = c
	}
}
func (s *sink) Write(b []byte) (int, error) {
	s.WriteHeader(http.StatusOK)
	return len(b), nil
}

// replay sends ops through the server's handler in-process, one span
// per handler call named after the op kind, under parent. It returns
// the number of non-2xx answers.
func replay(tr *tracer, parent int, srv *serve.Server, ops []op) int {
	reqs := make([]*http.Request, len(ops))
	for i, o := range ops {
		reqs[i] = httptest.NewRequest(http.MethodGet, o.path, nil)
	}
	h := srv.Handler()
	w := &sink{h: http.Header{}}
	bad := 0
	for i, o := range ops {
		clear(w.h)
		w.code = 0
		sp := tr.begin("serve."+o.kind.String(), parent)
		h.ServeHTTP(w, reqs[i])
		tr.end(sp)
		if w.code != http.StatusOK {
			bad++
		}
	}
	return bad
}

// directQueries runs the list ops' filters straight on an index and on
// a 4-shard cluster, as the server's request compiler and scatter-
// gather do: index.query spans per request, one shard.fanout span per
// shard call and a shard.merge span. It returns rows gathered from the
// shards and rows returned on pages.
func directQueries(tr *tracer, parent int, ix *index.Index, cl *shard.Cluster, ops []op) (gathered, returned int) {
	lists := make([][]*core.Erratum, len(cl.Shards))
	for _, o := range ops {
		q := o.list
		if q == nil {
			continue
		}
		sp := tr.begin("index.query", parent)
		q.page(q.run(ix))
		tr.end(sp)

		req := tr.begin("shard.request", parent)
		for i, sh := range cl.Shards {
			sp := tr.begin("shard.fanout", req)
			lists[i] = q.run(sh.IX)
			tr.end(sp)
			gathered += len(lists[i])
		}
		sp = tr.begin("shard.merge", req)
		page, _ := cl.Merge(lists, q.unique, q.offset, q.limit)
		tr.end(sp)
		tr.end(req)
		returned += len(page)
	}
	return gathered, returned
}

// slowestShard returns, per shard.request span, its slowest
// shard.fanout child.
func (t *tracer) slowestShard() []time.Duration {
	slow := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Name == "shard.fanout" && s.dur() > slow[s.Parent] {
			slow[s.Parent] = s.dur()
		}
	}
	out := make([]time.Duration, 0, len(slow))
	for _, d := range slow {
		out = append(out, d)
	}
	return out
}

// openServer opens the v2 file and starts an in-process server over it
// the way errserve does, with a span per layer.
func openServer(tr *tracer, parent int, path string, shards int) (*serve.Server, *core.Database, error) {
	sp := tr.begin("store.open", parent)
	rd, db, err := openDB(path)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	defer rd.Close() // the server holds its own reference to the mapping
	sp = tr.begin("serve.new", parent)
	srv, err := serve.New(serve.WithStore(rd), serve.Options{Shards: shards})
	tr.end(sp)
	return srv, db, err
}

// serveLayer measures the serving layers. A serve-* run replays its
// request sequence through an in-process serve.New over the file, with
// the workload's shard count, and runs the list filters straight on the
// index and a 4-shard cluster, in alternating traced and untraced
// passes; the other workloads replay a short serve-hot sequence once.
func (r *run) serveLayer(tr *tracer, path string, rd store.Reader, db *core.Database, tf *traffic) error {
	ix, err := storeIndex(rd, db)
	if err != nil {
		return err
	}
	cl := shard.Partition(db, scanShards)
	ops, shards := tf.ops[:min(len(tf.ops), replayOps)], tf.shards
	primary := r.workload == "serve-hot" || r.workload == "serve-scan"
	if !primary {
		ops, shards = newVocab(db).hotReads(rand.New(rand.NewSource(r.seed)), probeReads), 0
	}
	// Every handler kind gets timed: a sequence without /v1/stats
	// (serve-scan) is followed by a few, after the hit ratio is read.
	var stats []op
	if mixOf(ops)[opStats.String()] == 0 {
		stats = make([]op, probeReads/10)
		for i := range stats {
			stats[i] = statsOp
		}
	}
	var hits float64
	var gathered, returned int
	pass := func(t *tracer) error {
		root := t.begin("serve", -1)
		defer t.end(root)
		srv, _, err := openServer(t, root, path, shards)
		if err != nil {
			return err
		}
		before := srv.Metrics().Cache
		r.failed += replay(t, root, srv, ops)
		after := srv.Metrics().Cache
		r.failed += replay(t, root, srv, stats)
		r.attempted += len(ops) + len(stats)
		g, n := directQueries(t, root, ix, cl, ops)
		if !t.off {
			hits = hitRatio(before, after)
			gathered, returned = g, n
		}
		return nil
	}
	if primary {
		err = r.passes(tr, r.seconds/2, 2, 6, pass)
	} else {
		err = pass(tr)
	}
	r.metric("serve.cache_hit_ratio", hits)
	if returned > 0 {
		r.metric("shard.rows_per_returned", float64(gathered)/float64(returned))
	}
	return err
}

// storeIndex builds the index the single-index server uses: postings
// straight from the file when it carries them.
func storeIndex(rd store.Reader, db *core.Database) (*index.Index, error) {
	if sv, ok := rd.(*store.StoreV2); ok {
		if l := sv.IndexLists(); l != nil {
			return index.FromLists(db, l)
		}
	}
	return index.Build(db), nil
}

// ingestLayer measures the ingest layers. An ingest run opens the file,
// starts a single-index server and an ingest.Ingester over it, and
// applies the first POSTs of its stream with Ingester.Apply then
// Server.SwapDelta, replaying the reads due between POSTs through the
// handler and on the ingester's index, in alternating traced and
// untraced passes; the other workloads apply two POSTs once.
// shard.Repartition and store.BuildFragmentsDelta are timed separately
// on the same inputs.
func (r *run) ingestLayer(tr *tracer, path string, db *core.Database, tf *traffic) error {
	posts, reads := tf.texts, tf.reads
	primary := r.workload == "ingest"
	if !primary {
		var err error
		posts, err = ingestTexts(db, r.seed, rand.New(rand.NewSource(r.seed)), probePosts)
		if err != nil {
			return err
		}
	}
	posts = posts[:min(len(posts), ingestPosts)]
	perPost := 0
	if primary {
		perPost = ingestReadRate / ingestWriteRate
	}
	var relabeled, reordered, badGens int
	var merges []time.Duration
	pass := func(t *tracer) error {
		root := t.begin("ingest", -1)
		defer t.end(root)
		srv, db, err := openServer(t, root, path, 0)
		if err != nil {
			return err
		}
		sp := t.begin("ingest.new", root)
		ing := ingest.NewFrom(db, ingest.Options{})
		t.end(sp)
		sp = t.begin("shard.partition", root)
		cl := shard.Partition(db, scanShards)
		t.end(sp)
		sp = t.begin("store.build_fragments", root)
		frags, err := store.BuildFragments(db)
		t.end(sp)
		if err != nil {
			return err
		}
		gen := srv.Generation()
		rel, reo := 0, 0
		for k, text := range posts {
			batch := reads[k*perPost : (k+1)*perPost]
			r.failed += replay(t, root, srv, batch)
			r.attempted += len(batch) + 1
			_, ix := ing.Snapshot()
			for _, o := range batch {
				sp := t.begin("index.query", root)
				o.list.page(o.list.run(ix))
				t.end(sp)
			}

			sp := t.begin("ingest.apply", root)
			res, err := ing.Apply([]string{text})
			t.end(sp)
			if err != nil {
				return err
			}
			sp = t.begin("serve.swap_delta", root)
			next := srv.SwapDelta(res.DB)
			t.end(sp)
			if next != gen+1 || !res.Changed {
				badGens++
			}
			gen = next
			sp = t.begin("shard.repartition", root)
			cl, _ = shard.Repartition(cl, res.DB, scanShards)
			t.end(sp)
			sp = t.begin("store.fragments_delta", root)
			frags, err = store.BuildFragmentsDelta(frags, res.DB)
			t.end(sp)
			if err != nil {
				return err
			}
			if !t.off {
				merges = append(merges, res.MergeDuration)
				rel += res.Relabeled
				reo += res.Reordered
			}
		}
		if !t.off {
			relabeled, reordered = rel, reo
		}
		return nil
	}
	var err error
	if primary {
		err = r.passes(tr, r.seconds/2, 2, 4, pass)
	} else {
		err = pass(tr)
	}
	if err != nil {
		return err
	}
	r.check("every traced POST advanced the generation by one", badGens == 0, fmt.Sprintf("%d bad swaps", badGens))
	r.metric("index.merge_delta_ms", ms(median(merges)))
	r.metric("ingest.relabeled", float64(relabeled))
	r.metric("ingest.reordered", float64(reordered))
	return nil
}

// probeSeconds is the length of the traced run's open-loop probe.
const probeSeconds = 3

// probeHTTP starts errserve on the file, runs the first seconds of the
// workload's traffic (the serve-scan traffic for the build workload)
// at its rate after a warm-up, and records loadgen.late_p99_ms. It
// returns the client-side p50 service time (send to response) of the
// reads, and those reads.
func (r *run) probeHTTP(path string, tf *traffic) (time.Duration, []op, error) {
	n := 0
	for n < len(tf.due) && tf.due[n] < probeSeconds*time.Second {
		n++
	}
	ops, due := tf.ops[:n], tf.due[:n]
	srv, _, err := startServer(r.errserve, r.path("errserve.log"), "-db", path, "-shards", strconv.Itoa(tf.shards))
	if err != nil {
		return 0, nil, err
	}
	defer srv.stop()
	r.warmUp(srv, tf)
	send, closeConns := httpSender(srv.base, ops, loadWorkers, func(int) bool { return false })
	res := runOpenLoop(due, loadWorkers, drainGrace, send)
	closeConns()
	r.attempted += res.scheduled
	r.failed += res.failed + res.unsent
	r.metric("loadgen.late_p99_ms", ms(quantile(res.lateBy, 0.99)))
	var service []time.Duration
	var reads []op
	for i, o := range ops {
		if o.kind != opIngest {
			service = append(service, res.service[i])
			reads = append(reads, o)
		}
	}
	return quantile(service, 0.5), reads, nil
}

// handlerP50 replays the warm-up and the reads of the HTTP probe
// through the handler of an in-process server over the same file, with
// the same shard count, and returns the handler p50 over the reads: the
// side of http.overhead_us that excludes HTTP. The ingest probe's POSTs
// are not replayed, so its reads run on the documents they replaced.
func (r *run) handlerP50(path string, shards int, warm, reads []op) (time.Duration, error) {
	t := newTracer()
	srv, _, err := openServer(t, -1, path, shards)
	if err != nil {
		return 0, err
	}
	root := t.begin("http.handler", -1)
	r.failed += replay(&tracer{off: true}, -1, srv, warm)
	r.failed += replay(t, root, srv, reads)
	t.end(root)
	r.attempted += len(warm) + len(reads)
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Parent == root {
			ds = append(ds, s.dur())
		}
	}
	return median(ds), nil
}
