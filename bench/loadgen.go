package main

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// lateAfter is how far past its due time a request may be sent before
// the generator counts it as late.
const lateAfter = time.Millisecond

// outcome is what one request returned.
type outcome struct {
	status int
	err    error
	body   []byte
}

func (o outcome) ok() bool { return o.err == nil && o.status >= 200 && o.status < 300 }

// sendFunc sends op i of the sequence from worker w. Each worker owns
// its connection, so a sendFunc may keep per-worker state.
type sendFunc func(w, i int) outcome

// openResult is the record of one open-loop phase. Per-op slices are
// indexed like the op sequence.
type openResult struct {
	scheduled int
	sent      int
	unsent    int             // due before the drain deadline ran out but never sent
	failed    int             // non-2xx or transport error
	late      int             // sent more than lateAfter after the due time
	latency   []time.Duration // done - due; -1 when unsent
	service   []time.Duration // done - sent; -1 when unsent
	lateBy    []time.Duration // sent - due; -1 when unsent
	outcomes  []outcome
	elapsed   time.Duration // first due time to last completion
}

// runOpenLoop sends op i at start+due[i] from `workers` goroutines, no
// matter how fast earlier requests completed. A request whose worker
// is still busy when it falls due is sent as soon as a worker frees,
// and its latency runs from the due time, so a stall is charged to
// every request queued behind it. Requests still unsent grace after
// the last due time are counted as unsent, never dropped silently.
func runOpenLoop(due []time.Duration, workers int, grace time.Duration, send sendFunc) *openResult {
	n := len(due)
	r := &openResult{
		scheduled: n,
		latency:   make([]time.Duration, n),
		service:   make([]time.Duration, n),
		lateBy:    make([]time.Duration, n),
		outcomes:  make([]outcome, n),
	}
	if n == 0 {
		return r
	}
	start := time.Now()
	deadline := start.Add(due[n-1] + grace)
	var next atomic.Int64
	var wg sync.WaitGroup
	ends := make([]time.Time, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pinWorker()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				dueAt := start.Add(due[i])
				sleepUntil(dueAt)
				sent := time.Now()
				if sent.After(deadline) {
					r.latency[i], r.service[i], r.lateBy[i] = -1, -1, -1
					r.outcomes[i] = outcome{err: errUnsent}
					continue
				}
				out := send(w, i)
				done := time.Now()
				r.latency[i] = done.Sub(dueAt)
				r.service[i] = done.Sub(sent)
				r.lateBy[i] = sent.Sub(dueAt)
				r.outcomes[i] = out
				ends[w] = done
			}
		}(w)
	}
	wg.Wait()
	last := start
	for _, t := range ends {
		if t.After(last) {
			last = t
		}
	}
	r.elapsed = last.Sub(start)
	for i := range due {
		switch {
		case r.lateBy[i] < 0:
			r.unsent++
			continue
		case r.lateBy[i] > lateAfter:
			r.late++
		}
		r.sent++
		if !r.outcomes[i].ok() {
			r.failed++
		}
	}
	return r
}

// pinWorker locks the calling goroutine to its OS thread and sets the
// thread's timer slack to 1µs, so sleepUntil wakes within microseconds
// of a due time. time.Sleep cannot: the runtime waits for timers in
// epoll with millisecond resolution, which would add up to a
// millisecond of generator lateness to every request.
func pinWorker() {
	// Never unlocked: when the worker returns, the runtime retires the
	// thread, so the changed slack never reaches other goroutines.
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0) // best effort: the default slack is 50µs
}

// sleepUntil blocks the thread in nanosleep until t.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an EINTR wake-up just loops
	}
}

var errUnsent = errors.New("not sent before the drain deadline")

// held reports whether the generator kept the schedule: every request
// was sent, and 99% of them within lateAfter of their due time.
func (r *openResult) held() bool {
	return r.unsent == 0 && quantile(r.lateBy, 0.99) <= lateAfter
}

// achievedRate is the rate at which requests were actually sent.
func (r *openResult) achievedRate() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.sent) / r.elapsed.Seconds()
}

// runClosedLoop keeps `workers` requests in flight for d, cycling
// through n ops, and returns completed and failed counts and the
// elapsed time.
func runClosedLoop(n, workers int, d time.Duration, send sendFunc) (done, failed int, elapsed time.Duration) {
	var next, okN, badN atomic.Int64
	start := time.Now()
	stop := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				i := int(next.Add(1)-1) % n
				if send(w, i).ok() {
					okN.Add(1)
				} else {
					badN.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return int(okN.Load() + badN.Load()), int(badN.Load()), time.Since(start)
}

// quantile returns the q-quantile (nearest rank) of the non-negative
// durations in ds; negative entries mark missing samples and are
// skipped.
func quantile(ds []time.Duration, q float64) time.Duration {
	s := make([]time.Duration, 0, len(ds))
	for _, d := range ds {
		if d >= 0 {
			s = append(s, d)
		}
	}
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tail returns the highest of p99 and p90 that has at least ten
// samples beyond it, falling back to the maximum, with its name.
func tail(ds []time.Duration) (time.Duration, string) {
	n := 0
	for _, d := range ds {
		if d >= 0 {
			n++
		}
	}
	switch {
	case n >= 1000:
		return quantile(ds, 0.99), "p99"
	case n >= 100:
		return quantile(ds, 0.90), "p90"
	default:
		return quantile(ds, 1), "max"
	}
}

// httpSender returns a sendFunc over one keep-alive connection per
// worker, and a function that closes those connections. Bodies of the
// ops for which keep returns true are retained in the outcome; others
// are read and discarded.
func httpSender(base string, ops []op, workers int, keep func(i int) bool) (sendFunc, func()) {
	clients := make([]*http.Client, workers)
	for w := range clients {
		clients[w] = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	closeAll := func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}
	return func(w, i int) outcome {
		o := &ops[i]
		var req *http.Request
		var err error
		if o.kind == opIngest {
			req, err = http.NewRequest(http.MethodPost, base+"/v1/admin/ingest", strings.NewReader(o.body))
		} else {
			req, err = http.NewRequest(http.MethodGet, base+o.path, nil)
		}
		if err != nil {
			return outcome{err: err}
		}
		resp, err := clients[w].Do(req)
		if err != nil {
			return outcome{err: err}
		}
		defer resp.Body.Close()
		out := outcome{status: resp.StatusCode}
		if keep(i) || !out.ok() {
			var buf bytes.Buffer
			_, out.err = io.Copy(&buf, resp.Body)
			out.body = buf.Bytes()
		} else {
			_, out.err = io.Copy(io.Discard, resp.Body)
		}
		return out
	}, closeAll
}
