package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ingest"
	"repro/internal/specdoc"
)

// ingestTexts renders one corpus seed into document texts in
// deterministic order.
func ingestTexts(t testing.TB, seed int64) []string {
	t.Helper()
	gt, err := corpus.Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	rendered := specdoc.WriteAll(gt.DB, specdoc.WriteOptions{})
	keys := make([]string, 0, len(rendered))
	for k := range rendered {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	texts := make([]string, 0, len(keys))
	for _, k := range keys {
		texts = append(texts, rendered[k])
	}
	return texts
}

// ingestingServer wires an Ingester to a Server the way errserve does:
// one mutex serializes each Apply with its SwapDelta so snapshots
// install in application order.
func ingestingServer(initial *core.Database, shards int) (*Server, *ingest.Ingester) {
	ing := ingest.NewFrom(initial, ingest.Options{Parallelism: 1})
	var mu sync.Mutex
	var srv *Server
	srv = newDBServer(initial, Options{CacheSize: -1, Shards: shards, Ingest: func(_ context.Context, text string) (IngestSummary, error) {
		mu.Lock()
		defer mu.Unlock()
		res, err := ing.Apply([]string{text})
		if err != nil {
			return IngestSummary{}, err
		}
		sum := IngestSummary{Documents: res.Docs, Errata: res.Errata, Skipped: res.Skipped}
		if res.Changed {
			sum.Generation = srv.SwapDelta(res.DB)
		} else {
			sum.Generation = srv.Generation()
		}
		return sum, nil
	}})
	return srv, ing
}

// postIngest pushes one document through POST /v1/admin/ingest.
func postIngest(t *testing.T, srv *Server, text string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/admin/ingest", strings.NewReader(text))
	srv.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// stripGen removes the generation field from a JSON body so responses
// from servers at different generations can be compared for content.
func stripGen(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("unmarshal %q: %v", truncate(body), err)
	}
	delete(m, "generation")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestIngestEndpointNotConfigured pins the 501 contract.
func TestIngestEndpointNotConfigured(t *testing.T) {
	db := core.NewDatabase()
	srv := newDBServer(db, Options{})
	code, body := postIngest(t, srv, "anything")
	if code != 501 {
		t.Fatalf("POST /v1/admin/ingest without Ingest: %d %s, want 501", code, truncate(body))
	}
}

// TestIngestEndpointRejectsBadDocument pins the 400 contract: an
// unparseable body leaves the served snapshot untouched.
func TestIngestEndpointRejectsBadDocument(t *testing.T) {
	srv, _ := ingestingServer(core.NewDatabase(), 0)
	gen := srv.Generation()
	code, body := postIngest(t, srv, "not a specification update\n")
	if code != 400 {
		t.Fatalf("bad document: %d %s, want 400", code, truncate(body))
	}
	if srv.Generation() != gen {
		t.Fatalf("bad document advanced the generation")
	}
}

// TestIngestEndpointRejectsOversizedBody pins the 413 contract: a body
// over maxIngestBytes is refused before the Ingest callback runs,
// counted as an admin_ingest error, and leaves the served snapshot
// untouched.
func TestIngestEndpointRejectsOversizedBody(t *testing.T) {
	called := false
	srv := newDBServer(core.NewDatabase(), Options{Ingest: func(context.Context, string) (IngestSummary, error) {
		called = true
		return IngestSummary{}, nil
	}})
	gen := srv.Generation()
	code, body := postIngest(t, srv, strings.Repeat("x", maxIngestBytes+1))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %s, want 413", code, truncate(body))
	}
	if called {
		t.Fatal("oversized body reached the Ingest callback")
	}
	if got := srv.Metrics().Endpoints["admin_ingest"].Errors; got != 1 {
		t.Fatalf("admin_ingest errors = %d, want 1", got)
	}
	if srv.Generation() != gen {
		t.Fatal("oversized body advanced the generation")
	}
}

// TestIngestEndpointEquivalence is the serving half of the convergence
// contract: a server fed document-by-document through POST
// /v1/admin/ingest (delta merges, repartitions, generation bumps all
// the way) answers every matrix query identically to a server cold-built
// over the union corpus — in single-index mode and at 1, 4 and 16
// shards.
func TestIngestEndpointEquivalence(t *testing.T) {
	texts := ingestTexts(t, 1)
	unionDB, _, err := ingest.Build(nil, texts, ingest.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 1, 4, 16} {
		cold := newDBServer(unionDB, Options{CacheSize: -1, Shards: shards})
		srv, _ := ingestingServer(core.NewDatabase(), shards)
		for i, text := range texts {
			code, body := postIngest(t, srv, text)
			if code != 200 {
				t.Fatalf("shards=%d: ingest %d: %d %s", shards, i, code, truncate(body))
			}
			var sum struct {
				Status string `json:"status"`
				IngestSummary
			}
			if err := json.Unmarshal(body, &sum); err != nil {
				t.Fatalf("shards=%d: ingest %d: %v", shards, i, err)
			}
			if sum.Status != "ok" || sum.Documents != 1 || sum.Generation != uint64(i+2) {
				t.Fatalf("shards=%d: ingest %d: %+v, want ok/1 docs/gen %d", shards, i, sum, i+2)
			}
		}
		// Re-ingesting the first document is an idempotent no-op.
		gen := srv.Generation()
		code, body := postIngest(t, srv, texts[0])
		var sum struct {
			IngestSummary
		}
		if code != 200 || json.Unmarshal(body, &sum) != nil || sum.Skipped != 1 || sum.Generation != gen {
			t.Fatalf("shards=%d: re-ingest: %d %s", shards, code, truncate(body))
		}

		coldH, gotH := cold.Handler(), srv.Handler()
		queries := []string{
			"/v1/errata",
			"/v1/errata?unique=false&limit=1000",
			"/v1/errata?vendor=Intel",
			"/v1/errata?vendor=AMD&unique=false",
			"/v1/errata?min_triggers=1&limit=7&offset=3",
			"/v1/stats",
		}
		// Point lookups for a sample of keys from the union database.
		n := 0
		for _, e := range unionDB.Errata() {
			if e.Key != "" && n < 8 {
				queries = append(queries, "/v1/errata/"+e.Key)
				n++
			}
		}
		for _, url := range queries {
			wantCode, want := get(t, coldH, url)
			gotCode, got := get(t, gotH, url)
			if gotCode != wantCode || stripGen(t, got) != stripGen(t, want) {
				t.Fatalf("shards=%d %s: ingested %d %s != cold %d %s",
					shards, url, gotCode, truncate(got), wantCode, truncate(want))
			}
		}
	}
}

// TestIngestUnderSwapLoad is the soak of the streaming-ingest tier: a
// writer streams documents through the ingest path (Apply + SwapDelta
// on a 4-shard cluster) while reader goroutines hammer queries and
// point lookups across the swaps. Run under -race in CI. Readers assert
// generation consistency two ways: a response pair observed at one
// generation must agree on the entry count, and any generation's count
// must match what the writer recorded when installing it.
func TestIngestUnderSwapLoad(t *testing.T) {
	texts := ingestTexts(t, 3)
	half := len(texts) / 2
	initial, _, err := ingest.Build(nil, texts[:half], ingest.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}

	ing := ingest.NewFrom(initial, ingest.Options{Parallelism: 2})
	srv := newDBServer(initial, Options{CacheSize: 64, Shards: 4})
	// entriesAt records gen -> total entry count, written by the writer.
	// A reader can observe a generation before the writer records it
	// (the snapshot pointer flips inside SwapDelta, the record happens
	// after it returns), so lookups tolerate a miss — but a present
	// entry must match exactly.
	var entriesAt sync.Map
	entriesAt.Store(srv.Generation(), len(initial.Errata()))

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: one document per swap
		defer wg.Done()
		defer close(done)
		for _, text := range texts[half:] {
			res, err := ing.Apply([]string{text})
			if err != nil {
				t.Errorf("Apply: %v", err)
				return
			}
			gen := srv.SwapDelta(res.DB)
			entriesAt.Store(gen, len(res.DB.Errata()))
		}
	}()

	h := srv.Handler()
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			urls := []string{
				"/healthz",
				"/v1/errata?unique=false&limit=1",
				"/v1/errata?vendor=Intel&unique=false&limit=1",
				"/v1/errata?vendor=AMD&unique=false&limit=1",
			}
			for i := 0; ; i++ {
				select {
				case <-done:
					if i > 0 {
						return
					}
				default:
				}
				var hz struct {
					Errata     int    `json:"errata"`
					Generation uint64 `json:"generation"`
				}
				code, body := get(t, h, "/healthz")
				if code != 200 || json.Unmarshal(body, &hz) != nil {
					t.Errorf("healthz: %d %s", code, truncate(body))
					return
				}
				if want, ok := entriesAt.Load(hz.Generation); ok && want.(int) != hz.Errata {
					t.Errorf("gen %d: healthz reports %d entries, writer installed %d",
						hz.Generation, hz.Errata, want.(int))
					return
				}
				var q struct {
					Total      int    `json:"total"`
					Generation uint64 `json:"generation"`
				}
				code, body = get(t, h, urls[1+i%3])
				if code != 200 || json.Unmarshal(body, &q) != nil {
					t.Errorf("query: %d %s", code, truncate(body))
					return
				}
				if q.Generation == hz.Generation && strings.Contains(urls[1+i%3], "unique=false&limit=1") &&
					!strings.Contains(urls[1+i%3], "vendor") && q.Total != hz.Errata {
					t.Errorf("gen %d: query total %d != healthz %d", q.Generation, q.Total, hz.Errata)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	// The soak must end converged: the final snapshot equals a cold
	// build over the whole corpus.
	unionDB, _, err := ingest.Build(nil, texts, ingest.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	cold := newDBServer(unionDB, Options{CacheSize: -1, Shards: 4}).Handler()
	for _, url := range []string{"/v1/errata?unique=false&limit=1000", "/v1/stats"} {
		wantCode, want := get(t, cold, url)
		gotCode, got := get(t, h, url)
		if gotCode != wantCode || stripGen(t, got) != stripGen(t, want) {
			t.Fatalf("post-soak %s: %d %s != cold %d %s", url, gotCode, truncate(got), wantCode, truncate(want))
		}
	}
	if got, want := srv.Generation(), uint64(1+len(texts)-half); got != want {
		t.Fatalf("final generation %d, want %d", got, want)
	}
}
