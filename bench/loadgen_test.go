package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/serve"

	_ "repro/plugins/defaults"
)

// A server that stalls once must charge the stall to every request
// queued behind it: latency runs from the due time, not the send time.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stallAt, stall = 100, 200 * time.Millisecond
	due := evenDue(400, 1000) // one request per millisecond
	var mu sync.Mutex
	var stallEnd time.Time
	res := runOpenLoop(due, 2, time.Second, func(w, i int) outcome {
		mu.Lock()
		if i == stallAt {
			stallEnd = time.Now().Add(stall)
		}
		end := stallEnd
		mu.Unlock()
		time.Sleep(time.Until(end)) // every request waits out the stall
		return outcome{status: http.StatusOK}
	})
	if res.unsent != 0 || res.failed != 0 || res.sent != len(due) {
		t.Fatalf("sent %d unsent %d failed %d of %d", res.sent, res.unsent, res.failed, len(due))
	}
	// Request stallAt was sent no earlier than its due time, so the
	// stall ends at least 300ms after the start: request i, due at i ms,
	// waited at least 300-i ms.
	for i := stallAt + 1; i < stallAt+190; i++ {
		want := time.Duration(stallAt+200-i)*time.Millisecond - time.Millisecond
		if res.latency[i] < want {
			t.Fatalf("request %d: latency %v, want at least %v", i, res.latency[i], want)
		}
	}
	if res.late < 150 {
		t.Errorf("late = %d, want the ~200 requests queued behind the stall", res.late)
	}
	if res.held() {
		t.Error("held() = true across a 200ms stall")
	}
	// Timing from the send would have hidden the stall from all but the
	// requests in flight when it began.
	if svc, lat := quantile(res.service, 0.9), quantile(res.latency, 0.9); lat < 5*svc || lat < 50*time.Millisecond {
		t.Errorf("p90 latency %v vs service %v: stall not charged", lat, svc)
	}
}

// A rate the generator cannot hold must show in the result: requests
// sent late or not at all are counted, never dropped.
func TestOpenLoopReportsUnholdableRate(t *testing.T) {
	due := evenDue(1000, 2000) // 2000/s for half a second
	res := runOpenLoop(due, 2, 200*time.Millisecond, func(w, i int) outcome {
		time.Sleep(5 * time.Millisecond) // two workers hold at most 400/s
		return outcome{status: http.StatusOK}
	})
	if res.held() {
		t.Fatal("held() = true at five times the generator's capacity")
	}
	if res.unsent == 0 || res.sent+res.unsent != len(due) {
		t.Errorf("sent %d unsent %d of %d: unsent requests not counted", res.sent, res.unsent, len(due))
	}
	if res.late < res.sent/2 {
		t.Errorf("late = %d of %d sent", res.late, res.sent)
	}
	if r := res.achievedRate(); r > 1000 {
		t.Errorf("achieved rate %.0f/s, want well under the scheduled 2000/s", r)
	}
	for i, o := range res.outcomes {
		if res.lateBy[i] < 0 && o.err != errUnsent {
			t.Fatalf("request %d unsent without errUnsent", i)
		}
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	due := evenDue(50, 500)
	res := runOpenLoop(due, 2, time.Second, func(w, i int) outcome {
		if i%10 == 0 {
			return outcome{status: http.StatusInternalServerError}
		}
		return outcome{status: http.StatusOK}
	})
	if res.failed != 5 || res.sent != 50 || res.unsent != 0 {
		t.Fatalf("failed %d sent %d unsent %d, want 5/50/0", res.failed, res.sent, res.unsent)
	}
}

func TestQuantileAndTail(t *testing.T) {
	ds := make([]time.Duration, 0, 1001)
	for i := 1000; i >= 1; i-- {
		ds = append(ds, time.Duration(i))
	}
	ds = append(ds, -1) // a missing sample is skipped
	if q := quantile(ds, 0.5); q != 500 {
		t.Errorf("p50 = %d, want 500", q)
	}
	if v, name := tail(ds); name != "p99" || v != 990 {
		t.Errorf("tail = %d %s, want 990 p99", v, name)
	}
	if v, name := tail(ds[:200]); name != "p90" || v != 980 {
		t.Errorf("tail of 200 = %d %s, want 980 p90", v, name)
	}
	if v, name := tail(ds[:20]); name != "max" || v != 1000 {
		t.Errorf("tail of 20 = %d %s, want 1000 max", v, name)
	}
}

func TestInterleaveOrdersByDueTime(t *testing.T) {
	reads := make([]op, 10)
	writes := []op{{kind: opIngest}, {kind: opIngest}}
	ops, due := interleave(reads, writes, 10, 2)
	if len(ops) != 12 {
		t.Fatalf("got %d ops", len(ops))
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] {
			t.Fatalf("due times out of order at %d: %v", i, due)
		}
	}
	if ops[3].kind != opIngest || due[3] != 250*time.Millisecond {
		t.Errorf("first write at %d (due %v), want index 3 due 0.25", 3, due[3])
	}
}

// The generated list queries render a URL and index calls that agree:
// the server's total equals the direct index match count.
func TestListQueryURLMatchesIndexCalls(t *testing.T) {
	gt, err := corpus.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.WithDatabase(gt.DB), serve.Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(gt.DB)
	v := newVocab(gt.DB)
	rng := rand.New(rand.NewSource(7))
	keys := map[string]bool{}
	for i := 0; i < 300; i++ {
		q := v.randomList(rng)
		keys[q.path()] = true
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q.path(), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q.path(), rec.Code, rec.Body)
		}
		var body struct {
			Total int `json:"total"`
			Count int `json:"count"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		all := q.run(ix)
		if body.Total != len(all) || body.Count != len(q.page(all)) {
			t.Fatalf("%s: server total/count %d/%d, index %d/%d", q.path(), body.Total, body.Count, len(all), len(q.page(all)))
		}
	}
	if len(keys) < 290 {
		t.Errorf("only %d distinct queries in 300 draws", len(keys))
	}
}
