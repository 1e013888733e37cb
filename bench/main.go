// Command bench is the repository's benchmark. It builds nothing
// itself: bench/run.sh compiles it together with the rememberr and
// errserve binaries it drives, then runs it from the repository root:
//
//	bash bench/run.sh --workload build --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it drives the real binaries as child processes and
// reports the end-to-end metrics of BENCHMARK.json; with --trace 1 it
// calls each layer's functions in-process, timing every call from
// outside, and reports the per-layer metrics. The last line of standard
// output is one JSON object with the keys correct, attempted, failed
// and metrics; the line before it is the full report (environment
// stamp, configuration, correctness checks and the extra metrics named
// in README.md). See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	_ "repro/plugins/defaults" // the built-in rule pack and corpus profile
)

// spec is the part of BENCHMARK.json the benchmark reads: the metric
// names and units it must print.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload  string
	seed      int64
	seconds   time.Duration
	root      string // checkout root
	work      string // scratch directory of this run, removed at exit
	rememberr string // binary paths
	errserve  string

	attempted, failed int
	metrics           map[string]float64  // BENCHMARK.json metrics
	notes             map[string]measured // further metrics named in README.md
	config            map[string]any
	checks            []check
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func (r *run) metric(name string, v float64) { r.metrics[name] = v }

func (r *run) note(name string, v float64, unit string) { r.notes[name] = measured{v, unit} }

// check records a correctness check; a failed check fails the run and
// counts as a failed op.
func (r *run) check(name string, ok bool, detail string) {
	if ok {
		detail = ""
	}
	r.checks = append(r.checks, check{name, ok, detail})
	if !ok {
		r.failed++
	}
}

// workloads maps each workload to its end-to-end run; every workload
// shares the traced run.
var workloads = map[string]func(*run) error{
	"build":      buildE2E,
	"serve-hot":  serveE2E,
	"serve-scan": serveE2E,
	"ingest":     ingestE2E,
}

func main() {
	workload := flag.String("workload", "", "workload name (build, serve-hot, serve-scan, ingest)")
	seed := flag.Int64("seed", 1, "workload seed: corpus, query mix and ingest stream derive from it")
	secs := flag.Int("seconds", 15, "how long the run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced in-process run with per-layer metrics")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the rememberr and errserve binaries")
	flag.Parse()
	if err := mainErr(*workload, *seed, *secs, *trace, *bin); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, secs, trace int, bin string) error {
	defer stopAll()
	e2e, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if secs < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	if !filepath.IsAbs(bin) {
		bin = filepath.Join(root, bin)
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	r := &run{
		workload:  workload,
		seed:      seed,
		seconds:   time.Duration(secs) * time.Second,
		root:      root,
		work:      filepath.Join(root, work),
		rememberr: filepath.Join(bin, "rememberr"),
		errserve:  filepath.Join(bin, "errserve"),
		metrics:   map[string]float64{},
		notes:     map[string]measured{},
		config:    map[string]any{},
	}
	for _, b := range []string{r.rememberr, r.errserve} {
		if _, err := os.Stat(b); err != nil {
			return fmt.Errorf("missing binary (build with bench/run.sh): %w", err)
		}
	}

	// An interrupted run still stops its servers.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.RemoveAll(work)
		os.Exit(1)
	}()

	fn, want := e2e, sp.EndToEnd
	if trace == 1 {
		fn, want = traced, sp.PerLayer
	}
	if err := fn(r); err != nil {
		return err
	}

	out := map[string]measured{}
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", workload, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out[m.Name] = measured{v, m.Unit}
	}
	correct := true
	for _, c := range r.checks {
		correct = correct && c.OK
	}
	report := map[string]any{
		"workload": workload, "seed": seed, "seconds": secs, "trace": trace,
		"env": envStamp(root), "config": r.config, "checks": r.checks,
		"metrics": out, "extra_metrics": r.notes,
	}
	line, err := json.Marshal(report)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]measured `json:"metrics"`
	}{correct, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
