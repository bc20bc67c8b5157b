package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"schemamap/internal/bench"
	"schemamap/internal/core"
	"schemamap/internal/cover"
	"schemamap/internal/data"
	"schemamap/internal/ibench"
	"schemamap/internal/shard"
	"schemamap/internal/tgd"
)

// bulk is cold ingest-to-selection on a throughput scenario: an op is
// NewProblem → PrepareN(nproc) → a sharded-collective solve, one op at
// a time. Prepare dominates; every shard is small enough to be solved
// exhaustively, so no ADMM and no HTTP run.
//
// The scenario is a sixteenth of throughput-L (a quarter of the
// primitives, a quarter of the rows). At full L an op takes ~3 s, so a
// 30 s run holds ~10 ops; at a quarter of L (~0.55 s an op) runs of the
// same code still spread 20% in CPU time per op, several times as far
// as runs at this size made alongside them (see README.md).
type bulk struct {
	I, J   *data.Instance
	cands  tgd.Mapping
	nproc  int
	solver core.Solver
	ref    outcome
	pinned []outcome // the default seed's references, if pinned
}

func newBulk(seed int64, short bool) (workload, error) {
	spec := bench.ThroughputSpec{Name: "bulk", N: 52, Rows: 84, Seed: 105} // 6,726 tuples, 52 evidence components
	if short {
		spec = bench.ThroughputSpec{Name: "short", N: 12, Rows: 24, Seed: 105}
	}
	sc, err := ibench.Generate(spec.Config())
	if err != nil {
		return nil, err
	}
	perm := newPermuter(seed)
	return &bulk{
		I:      perm.instance(sc.I),
		J:      perm.instance(sc.J),
		cands:  perm.mapping(sc.Candidates),
		nproc:  runtime.GOMAXPROCS(0),
		solver: core.MustGet("sharded-collective"),
		pinned: pinnedFor("bulk", seed, short),
	}, nil
}

func (b *bulk) clients() int                    { return 1 }
func (b *bulk) beginPhase()                     {}
func (b *bulk) endPhase(int) map[string]float64 { return nil }
func (b *bulk) close()                          {}

// reference runs one cold op in process. It doubles as the warm-up op.
func (b *bulk) reference(ctx context.Context, tr *tracer) error {
	p := core.NewProblem(b.I, b.J, b.cands)
	p.PrepareN(b.nproc)
	sel, err := b.solver.Solve(ctx, p, core.WithParallelism(b.nproc))
	if err != nil {
		return err
	}
	b.ref = outcomeOf(sel)
	if b.pinned != nil {
		b.ref = b.pinned[0]
	}
	return nil
}

func (b *bulk) op(ctx context.Context, tr *tracer) opResult {
	root := tr.begin("op", 0)
	start := time.Now()
	s := tr.begin("core.prepare", root)
	p := core.NewProblem(b.I, b.J, b.cands)
	p.PrepareN(b.nproc)
	tr.end(s)
	prepared := time.Now()
	s = tr.begin("shard.solve", root)
	sel, err := b.solver.Solve(ctx, p, core.WithParallelism(b.nproc))
	tr.end(s)
	end := time.Now()
	tr.end(root)
	if err != nil {
		return opResult{err: err}
	}
	r := opResult{
		ms:       ms(end.Sub(start)),
		appendMs: []float64{ms(prepared.Sub(start))},
		solveMs:  []float64{ms(end.Sub(prepared))},
		tuples:   b.J.Len(),
	}
	if err := check(b.ref, outcomeOf(sel)); err != nil {
		r.err = fmt.Errorf("bulk: %w", err)
		return r
	}
	if tr != nil {
		b.probe(tr, p, &r)
	}
	return r
}

// probe repeats the op's Prepare as its three cover calls, and the
// sharded solve's split, under a root of its own: the op's spans time
// core.PrepareN and the sharded solve as the system runs them, the
// probe attributes them to the cover and shard layers.
func (b *bulk) probe(tr *tracer, p *core.Problem, r *opResult) {
	root := tr.begin("probe", 0)
	defer tr.end(root)
	s := tr.begin("cover.index", root)
	jidx := cover.IndexJ(b.J)
	tr.end(s)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s = tr.begin("cover.analyze", root)
	analyses := cover.AnalyzeN(b.I, jidx, b.cands, p.CoverOptions, b.nproc)
	tr.end(s)
	runtime.ReadMemStats(&after)
	s = tr.begin("cover.incidence", root)
	cover.BuildIncidence(jidx.Len(), analyses)
	tr.end(s)
	s = tr.begin("shard.split", root)
	shards := shard.SplitN(p, b.nproc)
	tr.end(s)

	pairs := 0
	for i := range analyses {
		pairs += len(analyses[i].Pairs)
	}
	st := shard.StatsOf(shards)
	r.exact = map[string]float64{
		"cover.pairs":              float64(pairs),
		"shard.shards":             float64(st.Shards),
		"shard.largest_candidates": float64(st.LargestCandidates),
	}
	r.extra = map[string][]float64{
		"cover.analyze_alloc_mb": {float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)},
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
