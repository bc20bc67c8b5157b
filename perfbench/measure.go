package main

import (
	"context"
	"fmt"
	"maps"
	"sort"
	"sync"
	"time"
)

// opResult is what one op reports.
type opResult struct {
	kind     int       // ops of one kind do the same work (churn: the plan step)
	ms       float64   // op latency
	solveMs  []float64 // latencies of the op's solve step (solve_p50_ms)
	appendMs []float64 // latencies of the op's append step (append_p50_ms)
	tuples   int       // target tuples the op brought into the evidence
	// exact holds deterministic work counters, reported once per op (or
	// once per churn round); every report in a run must be identical.
	exact map[string]float64
	// extra holds measured per-layer samples that are not spans.
	extra map[string][]float64
	err   error // a failed call or an oracle mismatch
}

// workload is one benchmark workload, set up and ready to run ops.
type workload interface {
	// clients is the number of closed-loop clients.
	clients() int
	// reference establishes the oracle's reference outcomes (untimed).
	reference(ctx context.Context, tr *tracer) error
	// op runs one op; tr is nil outside traced phases. Clients call it
	// concurrently when clients() > 1.
	op(ctx context.Context, tr *tracer) opResult
	// beginPhase and endPhase bracket a measured phase; endPhase may
	// return run-level per-layer figures.
	beginPhase()
	endPhase(ops int) map[string]float64
	close()
}

// phase is one measured window of closed-loop ops.
type phase struct {
	clients           int
	ops               []opStat
	attempted, failed int
	exact             []map[string]float64
	extra             map[string][]float64
	totals            map[string]float64
	errs              []error
	samples           []sample
}

// opStat is one completed op as the end-to-end metrics see it. callMs
// and cpuMs span the whole call of workload.op, so they include work a
// workload does between its timed ops (churn's round Prepare); steal
// is the host's steal share over the call.
type opStat struct {
	kind                     int
	ms, callMs, cpuMs, steal float64
	solveMs, appendMs        []float64
	tuples                   int
}

// sample is one op as the run record keeps it: when it started (s into
// the phase), its latency, the process CPU time over its call, and the
// host's steal share while it ran.
type sample struct {
	AtS    float64 `json:"atS"`
	Ms     float64 `json:"ms"`
	CPUMs  float64 `json:"cpuMs"`
	Steal  float64 `json:"steal"`
	Failed bool    `json:"failed,omitempty"`
}

// measure runs w's clients in a closed loop — each sends its next op
// only after the previous one returned — until d has passed and at
// least minOps ops were attempted.
func measure(ctx context.Context, w workload, d time.Duration, minOps int, tr *tracer) *phase {
	ph := &phase{clients: w.clients(), extra: make(map[string][]float64)}
	var mu sync.Mutex
	w.beginPhase()
	start := time.Now()
	var wg sync.WaitGroup
	for range w.clients() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				done := time.Since(start) >= d && ph.attempted >= minOps
				if !done {
					ph.attempted++ // claimed before it runs, so minOps is not overshot
				}
				mu.Unlock()
				if done || ctx.Err() != nil {
					return
				}
				h0, c0, t0 := readHostCPU(), cpuTime(), time.Since(start)
				r := w.op(ctx, tr)
				call, cpu := time.Since(start)-t0, cpuTime()-c0
				steal := stealShare(h0, readHostCPU())
				mu.Lock()
				ph.add(r, ms(call), ms(cpu), steal)
				ph.samples = append(ph.samples, sample{AtS: t0.Seconds(), Ms: r.ms, CPUMs: ms(cpu), Steal: steal, Failed: r.err != nil})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.totals = w.endPhase(ph.attempted - ph.failed)
	return ph
}

func (ph *phase) add(r opResult, callMs, cpuMs, steal float64) {
	if r.err != nil {
		ph.failed++
		if len(ph.errs) < 5 {
			ph.errs = append(ph.errs, r.err)
		}
		return
	}
	ph.ops = append(ph.ops, opStat{
		kind: r.kind, ms: r.ms, callMs: callMs, cpuMs: cpuMs, steal: steal,
		solveMs: r.solveMs, appendMs: r.appendMs, tuples: r.tuples,
	})
	if r.exact != nil {
		ph.exact = append(ph.exact, r.exact)
	}
	for k, v := range r.extra {
		ph.extra[k] = append(ph.extra[k], v...)
	}
}

func (ph *phase) ok() int { return ph.attempted - ph.failed }

// The end-to-end metrics are taken from the ops the host left alone.
// The host of a virtual machine steals CPU time, on a shared 2-vCPU
// one in bursts of seconds to minutes; there an op during which it
// stole a quarter of the CPU time ran nearly twice as long (see
// README.md). quietSteal is the largest steal share over an op's call
// for the op to count as quiet: at /proc/stat's 10 ms tick it admits
// one stolen tick in a 100 ms op on two CPUs. When fewer than minQuiet
// ops were quiet, the minQuiet least-stolen ops stand in for them.
const (
	quietSteal = 0.05
	minQuiet   = 10
)

// quietIdx returns the indices of the quiet entries of steals, or of
// the atLeast least-stolen ones when fewer were quiet, least-stolen
// first. Set-ups are chosen by the same rule.
func quietIdx(steals []float64, atLeast int) []int {
	idx := make([]int, len(steals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steals[idx[a]] < steals[idx[b]] })
	n := sort.Search(len(idx), func(k int) bool { return steals[idx[k]] > quietSteal })
	return idx[:min(len(idx), max(n, atLeast))]
}

// quiet returns the phase's quiet ops and their weights. Ops of one
// kind do the same work, and a longer kind is stolen from more often,
// so the quiet ops are chosen kind by kind and each stands for its
// kind's share of all ops: its weight is the kind's ops over the
// kind's quiet ops. A kind keeps at least its share of minQuiet.
func (ph *phase) quiet() (ops []opStat, weights []float64) {
	byKind := make(map[int][]int)
	for i, o := range ph.ops {
		byKind[o.kind] = append(byKind[o.kind], i)
	}
	kinds := make([]int, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Ints(kinds)
	for _, k := range kinds {
		idx := byKind[k]
		steals := make([]float64, len(idx))
		for j, i := range idx {
			steals[j] = ph.ops[i].steal
		}
		q := quietIdx(steals, (minQuiet*len(idx)+len(ph.ops)-1)/len(ph.ops))
		for _, j := range q {
			ops = append(ops, ph.ops[idx[j]])
			weights = append(weights, float64(len(idx))/float64(len(q)))
		}
	}
	return ops, weights
}

// quietP50 is the weighted median latency of the phase's quiet ops.
func (ph *phase) quietP50() float64 {
	ops, ws := ph.quiet()
	lat := make([]float64, len(ops))
	for i, o := range ops {
		lat[i] = o.ms
	}
	return weightedQuantile(lat, ws, 50)
}

// endToEnd computes the end-to-end metrics of an untraced phase from
// its quiet ops, each counted with its weight. Its clients run closed
// loops, each call following the last at once, so the throughput is
// clients ÷ the mean call time (Little's law), and the process CPU
// time over the calls, which covers the timeline once per client, is
// divided by the clients.
func (ph *phase) endToEnd() map[string]float64 {
	ops, ws := ph.quiet()
	if len(ops) == 0 {
		return map[string]float64{}
	}
	var n, callMs, cpuMs, tuples float64
	var lat, latW, solve, solveW, app, appW []float64
	for i, o := range ops {
		w := ws[i]
		n += w
		callMs += w * o.callMs
		cpuMs += w * o.cpuMs
		tuples += w * float64(o.tuples)
		lat, latW = append(lat, o.ms), append(latW, w)
		for _, x := range o.solveMs {
			solve, solveW = append(solve, x), append(solveW, w)
		}
		for _, x := range o.appendMs {
			app, appW = append(app, x), append(appW, w)
		}
	}
	c, callS := float64(ph.clients), callMs/1000
	return map[string]float64{
		"ops_per_s":     c * n / callS,
		"op_p50_ms":     weightedQuantile(lat, latW, 50),
		"op_p90_ms":     weightedQuantile(lat, latW, 90),
		"cpu_ms_per_op": cpuMs / c / n,
		"tuples_per_s":  c * tuples / callS,
		"solve_p50_ms":  weightedQuantile(solve, solveW, 50),
		"append_p50_ms": weightedQuantile(app, appW, 50),
	}
}

// exactCounters checks that every op reported the same work counters
// and returns them.
func (ph *phase) exactCounters() (map[string]float64, error) {
	if len(ph.exact) == 0 {
		return nil, nil
	}
	first := ph.exact[0]
	for i, e := range ph.exact[1:] {
		if !maps.Equal(first, e) {
			return nil, fmt.Errorf("work counters differ between reports 1 and %d: %v vs %v", i+2, first, e)
		}
	}
	return first, nil
}
