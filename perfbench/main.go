// Command perfbench is the repository's benchmark. It runs one
// workload — bulk, churn or serve — for a fixed time, checks every
// op's output against a reference, and prints the metrics as one JSON
// line on standard output. See README.md for the workloads, metrics
// and the layer each per-layer metric belongs to.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload churn --seed 3 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with spans around every call into the system's modules and
// prints the per-layer metrics instead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEndMetrics are printed by untraced runs, on every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"tuples_per_s", "1/s"},
	{"solve_p50_ms", "ms"},
	{"append_p50_ms", "ms"},
}

// perLayerMetrics are printed by traced runs, on every workload; a
// layer a workload does not call reads 0 there. A "_ms" metric whose
// stem names a span is the median self time of those spans.
var perLayerMetrics = []metricDef{
	{"cover.index_ms", "ms"},
	{"cover.analyze_ms", "ms"},
	{"cover.incidence_ms", "ms"},
	{"core.prepare_ms", "ms"},
	{"cover.analyze_alloc_mb", "MB"},
	{"cover.pairs", "count"},
	{"shard.split_ms", "ms"},
	{"shard.shards", "count"},
	{"shard.largest_candidates", "count"},
	{"shard.solve_ms", "ms"},
	{"core.append_ms", "ms"},
	{"core.remove_ms", "ms"},
	{"core.add_candidates_ms", "ms"},
	{"cover.pairs_changed", "count"},
	{"cover.changed_tuples", "count"},
	{"core.warm_solve_ms", "ms"},
	{"core.ground_ms", "ms"},
	{"psl.admm_ms", "ms"},
	{"core.round_ms", "ms"},
	{"psl.admm_iterations", "count"},
	{"psl.iter_us", "us"},
	{"serve.create_ms", "ms"},
	{"serve.solve_ms", "ms"},
	{"serve.fork_append_ms", "ms"},
	{"serve.append_ms", "ms"},
	{"serve.warm_solve_ms", "ms"},
	{"serve.delete_ms", "ms"},
	{"serve.solve_overhead_ms", "ms"},
	{"serve.append_overhead_ms", "ms"},
	{"serve.request_bytes", "bytes"},
	{"serve.response_bytes", "bytes"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.forks", "count"},
	{"trace.overhead_ms", "ms"},
	{"trace.unattributed_pct", "%"},
}

// spec describes how to build and drive one workload.
type spec struct {
	build  func(seed int64, short bool) (workload, error)
	minOps int // ops a phase runs at least, however short
}

var workloads = map[string]spec{
	"bulk":  {newBulk, 3},
	"churn": {newChurn, 24},
	"serve": {newServe, 4},
}

// An untraced run sets its workload up several times and reports the
// median of the quiet set-ups (see quietIdx) as setup_s: at least
// minSetups times, and more — up to maxSetups — while the set-ups so
// far took under setupBudget.
const (
	minSetups   = 3
	maxSetups   = 40
	setupBudget = 4 * time.Second
)

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	short    bool   // small inputs, for the package's own tests
	outDir   string // where the run record is written ("" = nowhere)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is what a run leaves in outDir besides its result line.
type runRecord struct {
	Diagnostics diagnostics `json:"diagnostics"`
	Report      report      `json:"report"`
	Notes       []string    `json:"notes"`
	Samples     []sample    `json:"samples"`
	Setups      []sample    `json:"setups"`
	Spans       []span      `json:"spans,omitempty"`
}

func run(ctx context.Context, cfg config) (*report, error) {
	sp, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have bulk, churn, serve)", cfg.workload)
	}
	diag := newDiagnostics(cfg.workload, cfg.seed, int(cfg.seconds/time.Second), cfg.trace)
	rec := &runRecord{Diagnostics: diag}
	note := func(format string, args ...any) {
		s := fmt.Sprintf(format, args...)
		rec.Notes = append(rec.Notes, s)
		fmt.Fprintln(os.Stderr, s)
	}

	var w workload
	var setups, setupSteals []float64
	var spent time.Duration
	for {
		if w != nil {
			w.close()
		}
		runtime.GC()
		h0, start := readHostCPU(), time.Now()
		built, err := sp.build(cfg.seed, cfg.short)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		w = built
		took := time.Since(start)
		spent += took
		setups = append(setups, took.Seconds())
		setupSteals = append(setupSteals, stealShare(h0, readHostCPU()))
		rec.Setups = append(rec.Setups, sample{Ms: ms(took), Steal: setupSteals[len(setupSteals)-1]})
		n := len(setups)
		if cfg.trace || n == maxSetups || (n >= minSetups && spent >= setupBudget) {
			break // traced runs do not report setup_s, so they set up once
		}
	}
	defer w.close()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	if err := w.reference(ctx, tr); err != nil {
		return nil, fmt.Errorf("%s reference: %w", cfg.workload, err)
	}

	host0 := readHostCPU()
	var untraced, traced *phase
	if cfg.trace {
		// A short untraced phase first, on the same process and inputs,
		// so the tracing overhead is measured rather than assumed.
		untraced = measure(ctx, w, cfg.seconds/3, sp.minOps, nil)
		traced = measure(ctx, w, cfg.seconds-cfg.seconds/3, sp.minOps, tr)
	} else {
		untraced = measure(ctx, w, cfg.seconds, sp.minOps, nil)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rec.Diagnostics.StealShare = stealShare(host0, readHostCPU())
	rec.Samples = untraced.samples
	note("%s", rec.Diagnostics)

	rep := &report{Correct: true, Metrics: make(map[string]metricValue)}
	fail := func(format string, args ...any) {
		rep.Correct = false
		note("FAIL: "+format, args...)
	}
	for _, ph := range []*phase{untraced, traced} {
		if ph == nil {
			continue
		}
		rep.Attempted += ph.attempted
		rep.Failed += ph.failed
		for _, err := range ph.errs {
			fail("op: %v", err)
		}
		if ph.ok() == 0 {
			fail("no op completed")
		}
	}
	if rep.Failed > 0 {
		fail("%d of %d ops failed or disagreed with the reference", rep.Failed, rep.Attempted)
	}
	note("op_fail_ratio=%g (%d of %d ops)", float64(rep.Failed)/float64(max(rep.Attempted, 1)), rep.Failed, rep.Attempted)

	if !cfg.trace {
		vals := untraced.endToEnd()
		var quietSetups []float64
		for _, i := range quietIdx(setupSteals, minQuiet) {
			quietSetups = append(quietSetups, setups[i])
		}
		vals["setup_s"] = median(quietSetups)
		vals["peak_rss_mb"] = peakRSSMB()
		for _, m := range endToEndMetrics {
			rep.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
		quiet, _ := untraced.quiet()
		n := len(quiet)
		note("quiet ops=%d of %d (host steal <= %g%% over the op)", n, len(untraced.ops), 100*quietSteal)
		note("latency samples=%d, highest percentile with >=%d samples beyond it: p%g", n, minTail, supportedPercentile(n))
		// Reported, not gated: across runs it spreads up to twice as far
		// as the median under host noise.
		note("op_p90_ms=%.4f ms (%d samples beyond it)", vals["op_p90_ms"], n-rank(n, 90))
	} else {
		rec.Spans = tr.snapshot()
		vals, err := layerMetrics(untraced, traced, rec.Spans)
		if err != nil {
			fail("%v", err)
		}
		for _, m := range perLayerMetrics {
			rep.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
		if p, c := vals["core.prepare_ms"], vals["cover.index_ms"]+vals["cover.analyze_ms"]+vals["cover.incidence_ms"]; p > 0 && c > 0 {
			note("core.prepare_ms=%.2f against the sum of its three cover calls %.2f (ratio %.3f)", p, c, p/c)
		}
	}
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		note("%-26s %14.4f %s", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}

	if cfg.outDir != "" {
		rec.Report = *rep
		if err := writeRecord(cfg.outDir, rec); err != nil {
			return nil, fmt.Errorf("writing run record: %w", err)
		}
	}
	return rep, nil
}

// layerMetrics derives the per-layer metrics from a traced phase, and
// checks the exact work counters and the reconciliation of self times
// with op wall time.
func layerMetrics(untraced, traced *phase, spans []span) (map[string]float64, error) {
	vals := make(map[string]float64)
	for name, xs := range layerSelf(spans) {
		vals[name+"_ms"] = median(xs)
	}
	for name, xs := range traced.extra {
		vals[name] = median(xs)
	}
	for name, v := range traced.totals {
		vals[name] = v
	}
	exact, err := traced.exactCounters()
	for name, v := range exact {
		vals[name] = v
	}
	vals["trace.overhead_ms"] = traced.quietP50() - untraced.quietP50()
	unattributed, rerr := reconciliation(spans, "op")
	vals["trace.unattributed_pct"] = 100 * unattributed
	if err == nil {
		err = rerr
	}
	return vals, err
}

func writeRecord(dir string, rec *runRecord) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	d := rec.Diagnostics
	trace := 0
	if d.Trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", d.Workload, d.Seed, trace))
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func main() {
	name := flag.String("workload", "", "workload to run: bulk, churn or serve")
	seed := flag.Int64("seed", defaultSeed, "workload seed; it permutes the workload's scenario")
	seconds := flag.Int("seconds", 30, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs with spans and prints the per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := run(ctx, config{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		outDir:   filepath.Join(".bench_build", "runs"),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		stop()
		os.Exit(1)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		stop()
		os.Exit(1)
	}
	fmt.Println(string(b))
}
