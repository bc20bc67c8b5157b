package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"schemamap/internal/bench"
	"schemamap/internal/core"
	"schemamap/internal/data"
	"schemamap/internal/ibench"
	"schemamap/internal/tgd"
)

// churnSteps is the length of the replayed churn plan.
const churnSteps = 24

// churn is incremental maintenance in process, on the bench-L
// scenario. The ibench.SplitChurn plan is replayed round after round,
// each round on a freshly PrepareStreaming'd problem; an op is one
// step: AppendTarget + RemoveTarget + AddCandidates + a warm collective
// re-solve. The round's Prepare and cold solve are outside every op.
type churn struct {
	I       *data.Instance
	initial *data.Instance
	cands   tgd.Mapping
	steps   []ibench.ChurnStep
	nproc   int
	solver  core.Solver
	ref     []outcome // per step
	pinned  []outcome // the default seed's references, if pinned

	// The one client's replay state.
	p     *core.Problem
	prev  *core.Selection
	step  int
	round map[string]float64 // the round's exact counters so far
}

func newChurn(seed int64, short bool) (workload, error) {
	spec := bench.Scales()[2] // L: N=56, Rows=36, seed 56
	steps := churnSteps
	if short {
		spec = bench.Scales()[0]
		steps = 6
	}
	sc, err := ibench.Generate(spec.Config())
	if err != nil {
		return nil, err
	}
	plan, err := ibench.SplitChurn(sc, ibench.ChurnConfig{Steps: steps, Seed: spec.Seed + 2})
	if err != nil {
		return nil, err
	}
	perm := newPermuter(seed)
	c := &churn{
		I:       perm.instance(sc.I),
		initial: perm.instance(plan.Initial),
		cands:   perm.mapping(plan.Candidates),
		nproc:   runtime.GOMAXPROCS(0),
		solver:  core.MustGet("collective"),
		pinned:  pinnedFor("churn", seed, short),
	}
	for _, st := range plan.Steps {
		c.steps = append(c.steps, ibench.ChurnStep{
			Append:        perm.tuples(st.Append),
			Remove:        perm.tuples(st.Remove),
			AddCandidates: perm.mapping(st.AddCandidates),
		})
	}
	return c, nil
}

func (c *churn) clients() int                    { return 1 }
func (c *churn) beginPhase()                     {}
func (c *churn) endPhase(int) map[string]float64 { return nil }
func (c *churn) close()                          {}

// reference replays one round through the core API.
func (c *churn) reference(ctx context.Context, tr *tracer) error {
	c.ref = nil
	if err := c.newRound(ctx, tr); err != nil {
		return err
	}
	for range c.steps {
		sel, _, _, err := c.mutateAndSolve(ctx, nil, 0, nil)
		if err != nil {
			return err
		}
		c.ref = append(c.ref, outcomeOf(sel))
	}
	if c.pinned != nil {
		c.ref = c.pinned
	}
	c.p = nil // the first op starts a fresh round
	return nil
}

// newRound prepares a fresh problem over the plan's initial state and
// cold-solves it.
func (c *churn) newRound(ctx context.Context, tr *tracer) error {
	root := tr.begin("round", 0)
	defer tr.end(root)
	s := tr.begin("core.prepare", root)
	p := core.NewProblem(c.I, c.initial.Clone(), append(tgd.Mapping(nil), c.cands...))
	p.PrepareStreaming(c.nproc)
	tr.end(s)
	sel, err := solveSpan(ctx, tr, root, "core.cold_solve", c.solver, p, nil, core.WithParallelism(c.nproc))
	if err != nil {
		return err
	}
	c.p, c.prev, c.step = p, sel, 0
	pairs := 0
	for _, a := range p.Analyses() {
		pairs += len(a.Pairs)
	}
	c.round = map[string]float64{"cover.pairs": float64(pairs)}
	return nil
}

// mutateAndSolve applies the next step of the plan and re-solves warm.
// It returns the selection and the latencies of the append and of the
// warm solve.
func (c *churn) mutateAndSolve(ctx context.Context, tr *tracer, root spanID, r *opResult) (*core.Selection, time.Duration, time.Duration, error) {
	st := c.steps[c.step]
	var appended time.Duration
	if len(st.Append) > 0 {
		s := tr.begin("core.append", root)
		start := time.Now()
		d, err := c.p.AppendTarget(st.Append)
		appended = time.Since(start)
		tr.end(s)
		if err != nil {
			return nil, 0, 0, err
		}
		c.count(d)
	}
	if len(st.Remove) > 0 {
		s := tr.begin("core.remove", root)
		d, err := c.p.RemoveTarget(st.Remove)
		tr.end(s)
		if err != nil {
			return nil, 0, 0, err
		}
		c.count(d)
	}
	if len(st.AddCandidates) > 0 {
		s := tr.begin("core.add_candidates", root)
		_, err := c.p.AddCandidates(st.AddCandidates)
		tr.end(s)
		if err != nil {
			return nil, 0, 0, err
		}
	}
	var extra map[string][]float64
	if r != nil {
		r.extra = map[string][]float64{}
		extra = r.extra
	}
	start := time.Now()
	sel, err := solveSpan(ctx, tr, root, "core.warm_solve", c.solver, c.p, extra,
		core.WithParallelism(c.nproc), core.WithWarmStart(c.prev))
	solved := time.Since(start)
	if err != nil {
		return nil, 0, 0, err
	}
	c.round["psl.admm_iterations"] += float64(sel.Iterations)
	c.prev = sel
	c.step++
	return sel, appended, solved, nil
}

func (c *churn) count(d *core.TargetDelta) {
	c.round["cover.pairs_changed"] += float64(len(d.PairsChanged))
	c.round["cover.changed_tuples"] += float64(len(d.ChangedTuples))
}

func (c *churn) op(ctx context.Context, tr *tracer) opResult {
	if c.p == nil || c.step == len(c.steps) {
		if err := c.newRound(ctx, tr); err != nil {
			return opResult{err: err}
		}
	}
	k := c.step
	st := c.steps[k]
	var r opResult
	root := tr.begin("op", 0)
	start := time.Now()
	sel, appended, solved, err := c.mutateAndSolve(ctx, tr, root, &r)
	end := time.Now()
	tr.end(root)
	if err != nil {
		c.p = nil
		return opResult{err: fmt.Errorf("churn step %d: %w", k, err)}
	}
	r.kind = k
	r.ms = ms(end.Sub(start))
	r.appendMs = []float64{ms(appended)}
	r.solveMs = []float64{ms(solved)}
	r.tuples = len(st.Append) + len(st.Remove)
	if err := check(c.ref[k], outcomeOf(sel)); err != nil {
		r.err = fmt.Errorf("churn step %d: %w", k, err)
		c.p = nil
		return r
	}
	if tr != nil {
		// The streaming contract: the incremental evidence equals a cold
		// Prepare of the mutated problem after every step.
		if !bench.EvidenceIdentical(c.p, coldOf(c.p, c.nproc)) {
			r.err = fmt.Errorf("churn step %d: incremental evidence differs from a cold Prepare", k)
			c.p = nil
			return r
		}
		if c.step == len(c.steps) {
			r.exact = c.round
		}
	}
	return r
}

// coldOf prepares a fresh problem over p's live target and candidates.
func coldOf(p *core.Problem, workers int) *core.Problem {
	J := data.NewInstance()
	jidx := p.JIndex()
	for j, t := range jidx.Tuples {
		if jidx.Live(j) {
			J.Add(t)
		}
	}
	cold := core.NewProblem(p.I, J, p.Candidates)
	cold.PrepareN(workers)
	return cold
}
