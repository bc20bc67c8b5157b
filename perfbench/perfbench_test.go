package main

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

var names = []string{"bulk", "churn", "serve"}

func shortRun(t *testing.T, name string, trace bool) *report {
	t.Helper()
	rep, err := run(context.Background(), config{
		workload: name,
		seed:     7,
		seconds:  300 * time.Millisecond,
		trace:    trace,
		short:    true,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, rep.Correct, rep.Attempted, rep.Failed)
	}
	return rep
}

func TestShortWorkloads(t *testing.T) {
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			rep := shortRun(t, name, false)
			if len(rep.Metrics) != len(endToEndMetrics) {
				t.Fatalf("got %d metrics, want %d", len(rep.Metrics), len(endToEndMetrics))
			}
			for _, m := range endToEndMetrics {
				if v := rep.Metrics[m.name]; v.Value <= 0 || v.Unit != m.unit {
					t.Errorf("%s = %v", m.name, v)
				}
			}
		})
	}
}

// exactNames are the per-layer counters that must repeat exactly.
var exactNames = []string{
	"cover.pairs", "shard.shards", "shard.largest_candidates",
	"cover.pairs_changed", "cover.changed_tuples", "psl.admm_iterations",
	"serve.forks", "serve.request_bytes", "serve.response_bytes",
}

func TestTracedCountersRepeat(t *testing.T) {
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			a, b := shortRun(t, name, true), shortRun(t, name, true)
			if len(a.Metrics) != len(perLayerMetrics) {
				t.Fatalf("got %d metrics, want %d", len(a.Metrics), len(perLayerMetrics))
			}
			nonzero := 0
			for _, m := range exactNames {
				if a.Metrics[m] != b.Metrics[m] {
					t.Errorf("%s: %v then %v", m, a.Metrics[m], b.Metrics[m])
				}
				if a.Metrics[m].Value != 0 {
					nonzero++
				}
			}
			if nonzero == 0 {
				t.Error("no work counter was measured")
			}
		})
	}
}

func TestOracleRejectsWrongObjective(t *testing.T) {
	ref := outcome{Objective: 871.3952380952367, Digest: digestOf([]int{3, 1, 2})}
	if err := check(ref, outcome{Objective: ref.Objective, Digest: digestOf([]int{1, 2, 3})}); err != nil {
		t.Fatalf("equal outcome rejected: %v", err)
	}
	if err := check(ref, outcome{Objective: ref.Objective + 1e-3, Digest: ref.Digest}); err == nil {
		t.Fatal("wrong objective accepted")
	}
	if err := check(ref, outcome{Objective: ref.Objective, Digest: digestOf([]int{1, 2})}); err == nil {
		t.Fatal("wrong selection accepted")
	}

	// End to end: an op checked against a corrupted reference fails.
	w, err := newBulk(7, true)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := w.reference(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if r := w.op(ctx, nil); r.err != nil {
		t.Fatalf("op against its own reference: %v", r.err)
	}
	w.(*bulk).ref.Objective += 0.5
	if r := w.op(ctx, nil); r.err == nil || !strings.Contains(r.err.Error(), "objective") {
		t.Fatalf("op against a wrong objective: err = %v", r.err)
	}
}

func TestQuantileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1
	}
	if got := quantile(xs, 50); got != 50 {
		t.Errorf("p50 = %g, want 50", got)
	}
	if got := quantile(xs, 90); got != 90 {
		t.Errorf("p90 = %g, want 90", got)
	}
	if got := quantile([]float64{4}, 90); got != 4 {
		t.Errorf("p90 of one sample = %g", got)
	}
}

func TestSelfTimesReconcile(t *testing.T) {
	const ms = int64(time.Millisecond)
	spans := []span{
		{ID: 1, Root: 1, Name: "op", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Root: 1, Name: "a", Start: 0, End: 60 * ms},
		{ID: 3, Parent: 2, Root: 1, Name: "a.inner", Start: 10 * ms, End: 30 * ms},
		{ID: 4, Parent: 2, Root: 1, Name: "a.inner", Start: 20 * ms, End: 40 * ms}, // overlaps 3
		{ID: 5, Parent: 1, Root: 1, Name: "b", Start: 60 * ms, End: 98 * ms},
	}
	self := selfTimes(spans)
	want := []float64{2, 30, 20, 20, 38}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%s] = %g, want %g", spans[i].Name, self[i], want[i])
		}
	}
	if _, err := reconciliation(spans, "op"); err == nil {
		t.Fatal("overlapping spans of one op reconciled")
	}
	spans[3].Start = 30 * ms
	un, err := reconciliation(spans, "op")
	if err != nil || un != 0.02 {
		t.Fatalf("reconciliation = %g, %v", un, err)
	}
	spans[4].End = 50 * ms // leaves 50% of the op unattributed
	if _, err := reconciliation(spans, "op"); err == nil {
		t.Fatal("an op half covered by its layer spans reconciled")
	}
}

// TestPinnedReferences recomputes the default seed's references and
// compares them with the pinned ones.
func TestPinnedReferences(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the full-size scenarios")
	}
	saved := pinned
	pinned = nil
	defer func() { pinned = saved }()
	for _, name := range names {
		w, err := workloads[name].build(defaultSeed, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.reference(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		var got []outcome
		switch w := w.(type) {
		case *bulk:
			got = []outcome{w.ref}
		case *churn:
			got = w.ref
		case *serveLoad:
			got = w.ref
		}
		w.close()
		if err := checkAll(saved[name], got); err != nil {
			var b strings.Builder
			for _, o := range got {
				fmt.Fprintf(&b, "\t\t{%.17g, 0x%016x},\n", o.Objective, o.Digest)
			}
			t.Errorf("%s: %v; computed:\n%s", name, err, b.String())
		}
	}
}

// TestQuietOps checks that the end-to-end metrics skip the ops the host
// stole from, weigh each kind of op by its share of all ops, and fall
// back to the least-stolen ops when too few were quiet.
func TestQuietOps(t *testing.T) {
	ph := &phase{clients: 2}
	for i := range 30 {
		steal := 0.0
		if i%3 == 0 {
			steal = 0.3 // a stolen op runs slower
		}
		ph.ops = append(ph.ops, opStat{ms: 100 + 100*steal, callMs: 100, cpuMs: 40, steal: steal, tuples: 5})
	}
	if ops, _ := ph.quiet(); len(ops) != 20 {
		t.Fatalf("%d quiet ops, want 20", len(ops))
	}
	m := ph.endToEnd()
	if m["op_p50_ms"] != 100 || m["ops_per_s"] != 20 || m["cpu_ms_per_op"] != 20 || m["tuples_per_s"] != 100 {
		t.Fatalf("end-to-end metrics %v", m)
	}

	// Two kinds in equal shares; the long kind is stolen from in all but
	// 2 of its 15 ops, the short kind never. Unweighted, the quiet ops
	// would be mostly short ones.
	ph = &phase{clients: 1}
	for i := range 30 {
		o := opStat{kind: i % 2, ms: 10, callMs: 10, cpuMs: 10}
		if o.kind == 1 {
			o.ms, o.callMs, o.cpuMs = 30, 30, 30
			if i > 3 {
				o.steal = 0.2
			}
		}
		ph.ops = append(ph.ops, o)
	}
	ops, ws := ph.quiet()
	if len(ops) != 15+5 { // the long kind keeps its share of minQuiet
		t.Fatalf("%d quiet ops, want 20", len(ops))
	}
	m = ph.endToEnd()
	if m["cpu_ms_per_op"] != 20 || m["ops_per_s"] != 50 || m["op_p50_ms"] != 10 {
		t.Fatalf("weighted metrics %v (weights %v)", m, ws)
	}

	for i := range ph.ops {
		ph.ops[i].kind = 0
		ph.ops[i].steal = 0.5 - float64(i)/100 // every op stolen from, the last ones least
	}
	ops, _ = ph.quiet()
	if len(ops) != minQuiet || ops[0].steal != ph.ops[len(ph.ops)-1].steal {
		t.Fatalf("fallback took %d ops starting at steal %g", len(ops), ops[0].steal)
	}
}

func TestWeightedQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 9, 7}
	ones := []float64{1, 1, 1, 1, 1, 1, 1}
	for _, p := range []float64{10, 50, 90, 100} {
		if got, want := weightedQuantile(xs, ones, p), quantile(xs, p); got != want {
			t.Errorf("p%g: weighted %g, unweighted %g", p, got, want)
		}
	}
	if got := weightedQuantile([]float64{1, 2}, []float64{1, 3}, 50); got != 2 {
		t.Errorf("weighted median %g, want 2", got)
	}
}
