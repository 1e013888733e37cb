package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/specdoc"
	"repro/internal/store"
)

// Workload shapes. Rates are fixed request rates of the open loop.
const (
	loadWorkers     = 2    // connections and busy goroutines of the load
	hotRate         = 1000 // serve-hot reads per second
	scanRate        = 500  // serve-scan reads per second
	ingestReadRate  = 500  // ingest reads per second
	ingestWriteRate = 4    // ingest POSTs per second
	scanShards      = 4
	setupStarts     = 40 // errserve starts per run; setup_s is their median
	setupBuilds     = 5  // cache-populating builds per run
	warmRebuilds    = 3
	minColdBuilds   = 3
	warmupSeconds   = 1.0
	closedShare     = 0.2 // share of a serve run spent in the closed loop
	drainGrace      = 2 * time.Second
)

// buildE2E measures the build workload: cache-populating first builds
// (set-up), warm -cache-dir replays, and cold builds until the run's
// time is up, all as child processes at the default parallelism.
func buildE2E(r *run) error {
	seed := strconv.FormatInt(r.seed, 10)
	var setup []time.Duration
	for i := 0; i < setupBuilds; i++ {
		c, err := runChild(r.rememberr, "build", "-format", "v2", "-seed", seed,
			"-cache-dir", r.path(fmt.Sprintf("cache%d", i)), "-o", r.path(fmt.Sprintf("setup%d.v2", i)))
		if err != nil {
			return err
		}
		setup = append(setup, c.wall)
		r.attempted++
	}
	var warm []time.Duration
	for i := 0; i < warmRebuilds; i++ {
		c, err := runChild(r.rememberr, "build", "-format", "v2", "-seed", seed,
			"-cache-dir", r.path("cache0"), "-o", r.path("warm.v2"))
		if err != nil {
			return err
		}
		warm = append(warm, c.wall)
		r.attempted++
	}
	var walls, cpus []time.Duration
	var rss []float64
	deadline := time.Now().Add(r.seconds)
	for len(walls) < minColdBuilds || time.Now().Before(deadline) {
		c, err := runChild(r.rememberr, "build", "-format", "v2", "-seed", seed, "-o", r.path("cold.v2"))
		if err != nil {
			return err
		}
		walls, cpus, rss = append(walls, c.wall), append(cpus, c.cpu), append(rss, c.rssMB)
		r.attempted++
	}

	cold, err := os.ReadFile(r.path("cold.v2"))
	if err != nil {
		return err
	}
	for _, name := range []string{"setup0.v2", "warm.v2"} {
		other, err := os.ReadFile(r.path(name))
		if err != nil {
			return err
		}
		r.check("cold build output equals "+name, string(cold) == string(other), "")
	}

	r.metric("setup_s", median(setup).Seconds())
	r.metric("op_p25_ms", ms(quantile(walls, 0.25)))
	r.metric("cpu_ms_per_op", ms(median(cpus)))
	r.metric("rss_mb", medianF(rss))
	r.note("build_s", median(walls).Seconds(), "s")
	r.note("build_cpu_s", median(cpus).Seconds(), "s")
	r.note("build_rss_mb", medianF(rss), "MB")
	r.note("rebuild_s", median(warm).Seconds(), "s")
	r.note("build_tail_ms", ms(quantile(walls, 1)), "ms")
	r.config["cold_builds"] = len(walls)
	r.config["file_bytes"] = len(cold)
	return nil
}

// buildDB writes the workload's database with an untimed child cold
// build.
func (r *run) buildDB() (string, error) {
	path := r.path("db.v2")
	_, err := runChild(r.rememberr, "build", "-format", "v2", "-seed", strconv.FormatInt(r.seed, 10), "-o", path)
	return path, err
}

// timeStarts starts and stops errserve n times and returns the times
// from exec to the first 200 on /healthz. A run takes half its starts
// before the load and half after, so a few seconds of a noisy neighbour
// on the machine cannot slow them all.
func (r *run) timeStarts(n int, args ...string) ([]time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < n; i++ {
		s, d, err := startServer(r.errserve, r.path("errserve.log"), args...)
		if err != nil {
			return nil, err
		}
		s.stop()
		ds = append(ds, d)
	}
	return ds, nil
}

// recordSetup reports the median of the start-up times as setup_s.
func (r *run) recordSetup(starts []time.Duration) {
	r.metric("setup_s", median(starts).Seconds())
	r.config["setup_starts"] = len(starts)
}

// openDB opens a v2 file in-process and materializes its database.
func openDB(path string) (store.Reader, *core.Database, error) {
	rd, err := store.Open(path)
	if err != nil {
		return nil, nil, err
	}
	db, err := rd.Database()
	if err != nil {
		rd.Close()
		return nil, nil, err
	}
	return rd, db, nil
}

// traffic is a workload's generated request sequence. The end-to-end
// run sends it to errserve; the traced run replays it in-process.
type traffic struct {
	rate   float64 // reads per second
	shards int     // errserve -shards
	warm   []op    // warm-up reads, sent before the measured phase
	ops    []op    // the measured phase, in due-time order
	due    []time.Duration
	reads  []op     // ingest: the reads among ops
	texts  []string // ingest: the POST bodies among ops, in order
}

// newTraffic draws the workload's traffic from the seed over the served
// database. The build workload gets the serve-scan traffic, which only
// its traced run's probes use.
func newTraffic(workload string, db *core.Database, seed int64, seconds time.Duration) (*traffic, error) {
	v := newVocab(db)
	rng := rand.New(rand.NewSource(seed))
	if workload == "ingest" {
		texts, err := ingestTexts(db, seed, rng, int(seconds.Seconds()*ingestWriteRate))
		if err != nil {
			return nil, err
		}
		t := &traffic{rate: ingestReadRate, texts: texts}
		t.warm = v.scanReads(rng, int(warmupSeconds*ingestReadRate), ingestListPct)
		t.reads = v.scanReads(rng, int(seconds.Seconds()*ingestReadRate), ingestListPct)
		writes := make([]op, len(texts))
		for i, text := range texts {
			writes[i] = op{kind: opIngest, body: text}
		}
		t.ops, t.due = interleave(t.reads, writes, ingestReadRate, ingestWriteRate)
		return t, nil
	}
	draw := func(n int) []op { return v.scanReads(rng, n, scanListPct) }
	t := &traffic{rate: scanRate, shards: scanShards}
	if workload == "serve-hot" {
		draw = func(n int) []op { return v.hotReads(rng, n) }
		t.rate, t.shards = hotRate, 0
	}
	t.warm = draw(int(warmupSeconds * t.rate))
	t.ops = draw(int(seconds.Seconds() * (1 - closedShare) * t.rate))
	t.due = evenDue(len(t.ops), t.rate)
	return t, nil
}

// serveE2E measures serve-hot or serve-scan: an open loop at a fixed
// rate, then a closed loop on the same mix for max_rps.
func serveE2E(r *run) error {
	dbPath, err := r.buildDB()
	if err != nil {
		return err
	}
	rd, db, err := openDB(dbPath)
	if err != nil {
		return err
	}
	defer rd.Close()
	tf, err := newTraffic(r.workload, db, r.seed, r.seconds)
	if err != nil {
		return err
	}
	ops := tf.ops
	r.config["rate_rps"] = tf.rate
	r.config["shards"] = tf.shards
	r.config["mix"] = mixOf(ops)

	args := []string{"-db", dbPath, "-shards", strconv.Itoa(tf.shards)}
	starts, err := r.timeStarts(setupStarts/2, args...)
	if err != nil {
		return err
	}
	srv, _, err := startServer(r.errserve, r.path("errserve.log"), args...)
	if err != nil {
		return err
	}
	defer srv.stop()
	r.warmUp(srv, tf)

	before, err := cacheCounters(srv)
	if err != nil {
		return err
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return err
	}
	send, closeConns := httpSender(srv.base, ops, loadWorkers, func(i int) bool { return i%readSampleGap == 0 })
	res := runOpenLoop(tf.due, loadWorkers, drainGrace, send)
	cpu1, err := srv.cpuTime()
	if err != nil {
		return err
	}
	after, err := cacheCounters(srv)
	if err != nil {
		return err
	}
	done, failed, elapsed := runClosedLoop(len(ops), loadWorkers, time.Duration(r.seconds.Seconds()*closedShare*float64(time.Second)), send)
	closeConns()
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	srv.stop()
	later, err := r.timeStarts(setupStarts-len(starts), args...)
	if err != nil {
		return err
	}
	r.recordSetup(append(starts, later...))

	r.recordOpen(res)
	r.attempted += done
	r.failed += failed
	cpuPerReq := (cpu1 - cpu0) / time.Duration(res.sent)
	// serve-scan exists for the list work, so its gated latency is read
	// from the list queries alone; its point lookups would otherwise
	// make up most of the lower quartile.
	gated := res.service
	if r.workload == "serve-scan" {
		gated = nil
		for i, o := range ops {
			if o.kind == opList {
				gated = append(gated, res.service[i])
			}
		}
	}
	r.metric("op_p25_ms", ms(quantile(gated, 0.25)))
	r.metric("cpu_ms_per_op", ms(cpuPerReq))
	r.metric("rss_mb", rss)
	r.noteLatency(res.service, res.latency)
	r.note("max_rps", float64(done)/elapsed.Seconds(), "1/s")
	r.note("cpu_us_per_req", us(cpuPerReq), "us")
	r.note("cache_hit_ratio", hitRatio(before, after), "ratio")

	ref, err := serve.New(serve.WithStore(rd), serve.Options{CacheSize: -1})
	if err != nil {
		return err
	}
	bad, first := 0, ""
	for i, o := range ops {
		if i%readSampleGap == 0 && !sameResponse(ref, o.path, res.outcomes[i]) {
			if bad++; bad == 1 {
				first = o.path
			}
		}
	}
	r.check("sampled responses equal the single-index reference", bad == 0, fmt.Sprintf("%d mismatches, first %s", bad, first))
	r.failed += bad
	return nil
}

// warmUp sends the traffic's warm-up reads at its rate.
func (r *run) warmUp(srv *server, tf *traffic) {
	send, closeConns := httpSender(srv.base, tf.warm, loadWorkers, func(int) bool { return false })
	runOpenLoop(evenDue(len(tf.warm), tf.rate), loadWorkers, drainGrace, send)
	closeConns()
}

// recordOpen folds an open-loop phase into the run's op counts and
// generator notes.
func (r *run) recordOpen(res *openResult) {
	r.attempted += res.scheduled
	r.failed += res.failed + res.unsent
	r.note("loadgen_late_p99_ms", ms(quantile(res.lateBy, 0.99)), "ms")
	q := func(ds []time.Duration) []float64 {
		return []float64{ms(quantile(ds, 0.5)), ms(quantile(ds, 0.9)), ms(quantile(ds, 0.99)), ms(quantile(ds, 0.999))}
	}
	r.config["open_loop"] = map[string]any{
		"scheduled": res.scheduled, "sent": res.sent, "unsent": res.unsent,
		"late": res.late, "held": res.held(), "achieved_rps": res.achievedRate(),
		"late_ms_p50_p90_p99_p999": q(res.lateBy), "service_ms_p50_p90_p99_p999": q(res.service),
	}
}

// noteLatency reports the read latency percentiles that are not gated:
// the send-to-response median, and the median and tail timed from each
// request's due time.
func (r *run) noteLatency(service, fromDue []time.Duration) {
	t, name := tail(fromDue)
	r.note("service_p50_ms", ms(quantile(service, 0.5)), "ms")
	r.note("p50_ms", ms(quantile(fromDue, 0.5)), "ms")
	r.note(name+"_ms", ms(t), "ms")
}

func mixOf(ops []op) map[string]float64 {
	m := map[string]float64{}
	for _, o := range ops {
		m[o.kind.String()] += 1 / float64(len(ops))
	}
	return m
}

var generationRE = regexp.MustCompile(`"generation":[0-9]+`)

func normalize(b []byte) string { return generationRE.ReplaceAllString(string(b), `"generation":G`) }

// sameResponse replays path on the reference server and compares the
// status and the generation-normalized body with what errserve sent.
func sameResponse(ref *serve.Server, path string, got outcome) bool {
	rec := httptest.NewRecorder()
	ref.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return got.err == nil && rec.Code == got.status && normalize(rec.Body.Bytes()) == normalize(got.body)
}

func cacheCounters(s *server) (serve.CacheSnapshot, error) {
	body, err := s.get("/v1/metrics.json")
	if err != nil {
		return serve.CacheSnapshot{}, err
	}
	var m serve.MetricsSnapshot
	err = json.Unmarshal(body, &m)
	return m.Cache, err
}

func hitRatio(before, after serve.CacheSnapshot) float64 {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// renderTexts renders a ground-truth corpus into specification-update
// texts the way the build's render stage does.
func renderTexts(gt *corpus.GroundTruth, par int) map[string]string {
	dup := make(map[string]string)
	for _, fe := range gt.Inventory.FieldErrors {
		if fe.Kind == "duplicate" {
			field := fe.Field
			if field == "Description" {
				field = "Problem"
			}
			dup[fe.Ref] = field
		}
	}
	return specdoc.WriteAllParallel(gt.DB, specdoc.WriteOptions{DuplicateFields: dup}, par)
}

// ingestTexts returns n POST bodies: documents rendered from corpus
// seed+1 and seed+2, visiting the live database's document keys in a
// seeded order and alternating the source seed on each visit of a key,
// so every POST replaces the live document of its key.
func ingestTexts(db *core.Database, seed int64, rng *rand.Rand, n int) ([]string, error) {
	var alt [2]map[string]string
	for i := range alt {
		gt, err := corpus.Generate(seed + 1 + int64(i))
		if err != nil {
			return nil, err
		}
		alt[i] = renderTexts(gt, 0)
	}
	var keys []string
	for k := range db.Docs {
		if a, ok := alt[0][k]; ok && a != alt[1][k] && alt[1][k] != "" {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("no document key renders differently under seeds %d and %d", seed+1, seed+2)
	}
	sort.Strings(keys)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	visits := map[string]int{}
	texts := make([]string, n)
	for i := range texts {
		k := keys[i%len(keys)]
		texts[i] = alt[visits[k]%2][k]
		visits[k]++
	}
	return texts, nil
}

// ingestE2E measures the ingest workload: a fixed-rate stream of POSTs
// beside an open loop of serve-scan-style reads, on a single-index
// errserve.
func ingestE2E(r *run) error {
	dbPath, err := r.buildDB()
	if err != nil {
		return err
	}
	rd, db, err := openDB(dbPath)
	if err != nil {
		return err
	}
	tf, err := newTraffic(r.workload, db, r.seed, r.seconds)
	rd.Close()
	if err != nil {
		return err
	}
	ops, texts := tf.ops, tf.texts
	r.config["rate_rps"] = tf.rate
	r.config["ingest_rate"] = ingestWriteRate
	r.config["mix"] = mixOf(ops)

	starts, err := r.timeStarts(setupStarts/2, "-db", dbPath)
	if err != nil {
		return err
	}
	srv, _, err := startServer(r.errserve, r.path("errserve.log"), "-db", dbPath)
	if err != nil {
		return err
	}
	defer srv.stop()
	r.warmUp(srv, tf)
	gen0, err := generation(srv)
	if err != nil {
		return err
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return err
	}
	keep := func(i int) bool { return ops[i].kind == opIngest || i%readSampleGap == 0 }
	send, closeConns := httpSender(srv.base, ops, loadWorkers, keep)
	res := runOpenLoop(tf.due, loadWorkers, drainGrace, send)
	closeConns()
	cpu1, err := srv.cpuTime()
	if err != nil {
		return err
	}
	stats, err := srv.get("/v1/stats")
	if err != nil {
		return err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	srv.stop()
	later, err := r.timeStarts(setupStarts-len(starts), "-db", dbPath)
	if err != nil {
		return err
	}
	r.recordSetup(append(starts, later...))
	r.recordOpen(res)

	var readLat, readSvc, postLat []time.Duration
	for i, o := range ops {
		if o.kind == opIngest {
			postLat = append(postLat, res.latency[i])
		} else {
			readLat = append(readLat, res.latency[i])
			readSvc = append(readSvc, res.service[i])
		}
	}
	r.metric("op_p25_ms", ms(quantile(readSvc, 0.25)))
	r.metric("cpu_ms_per_op", ms((cpu1-cpu0)/time.Duration(res.sent)))
	r.metric("rss_mb", rss)
	r.noteLatency(readSvc, readLat)
	r.note("ingest_p50_ms", ms(quantile(postLat, 0.5)), "ms")
	r.note("ingest_p90_ms", ms(quantile(postLat, 0.9)), "ms")

	return r.checkIngest(dbPath, ops, res, texts, gen0, stats)
}

// generation reads the served snapshot generation from /healthz.
func generation(s *server) (uint64, error) {
	body, err := s.get("/healthz")
	if err != nil {
		return 0, err
	}
	var h struct {
		Generation uint64 `json:"generation"`
	}
	err = json.Unmarshal(body, &h)
	return h.Generation, err
}

// checkIngest verifies the ingest run: every POST advanced the
// generation by one, sampled reads equal an in-process single-index
// reference replaying the same POSTs, and the final /v1/stats equals
// ingest.Build over the union.
func (r *run) checkIngest(dbPath string, ops []op, res *openResult, texts []string, gen0 uint64, stats []byte) error {
	// Reference states: state k serves the live database after k POSTs.
	rd, db, err := openDB(dbPath)
	if err != nil {
		return err
	}
	defer rd.Close()
	ref, err := serve.New(serve.WithStore(rd), serve.Options{CacheSize: -1})
	if err != nil {
		return err
	}
	ing := ingest.NewFrom(db, ingest.Options{})
	samples := map[uint64][]int{}
	wantGen, badPosts, badReads, first := gen0, 0, 0, ""
	for i, o := range ops {
		out := res.outcomes[i]
		if o.kind == opIngest {
			wantGen++
			var sum serve.IngestSummary
			if !out.ok() || json.Unmarshal(out.body, &sum) != nil || sum.Generation != wantGen || sum.Skipped != 0 {
				badPosts++
			}
			continue
		}
		if i%readSampleGap != 0 {
			continue
		}
		var g struct {
			Generation uint64 `json:"generation"`
		}
		if !out.ok() || json.Unmarshal(out.body, &g) != nil || g.Generation < gen0 || g.Generation > gen0+uint64(len(texts)) {
			badReads++
			continue
		}
		samples[g.Generation] = append(samples[g.Generation], i)
	}
	for k := 0; k <= len(texts); k++ {
		if k > 0 {
			ar, err := ing.Apply([]string{texts[k-1]})
			if err != nil {
				return err
			}
			ref.SwapDelta(ar.DB)
		}
		for _, i := range samples[gen0+uint64(k)] {
			if !sameResponse(ref, ops[i].path, res.outcomes[i]) {
				if badReads++; first == "" {
					first = fmt.Sprintf("%s at generation %d", ops[i].path, gen0+uint64(k))
				}
			}
		}
	}
	r.check("every POST advanced the generation by one", badPosts == 0, fmt.Sprintf("%d bad POSTs", badPosts))
	r.check("sampled reads equal the single-index reference", badReads == 0, fmt.Sprintf("%d mismatches, first %s", badReads, first))
	r.failed += badPosts + badReads

	rd2, db2, err := openDB(dbPath)
	if err != nil {
		return err
	}
	defer rd2.Close()
	union, _, err := ingest.Build(db2, texts, ingest.Options{})
	if err != nil {
		return err
	}
	cold, err := serve.New(serve.WithDatabase(union))
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	cold.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	ok := normalize(rec.Body.Bytes()) == normalize(stats)
	r.check("served /v1/stats equals ingest.Build over the union", ok, "")
	return nil
}

func (r *run) path(name string) string { return filepath.Join(r.work, name) }
