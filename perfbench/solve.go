package main

import (
	"context"
	"time"

	"schemamap/internal/core"
)

// solveSpan runs solver.Solve inside a span named name under parent.
// When tracing, it also splits the call into its phases from the
// solver's progress events:
//
//   - core.ground: from the call to the first "admm" event;
//   - psl.admm: from the first to the last "admm" event;
//   - core.round: from the "round" event to the return.
//
// ADMM reports progress every 64 iterations, so iterations after the
// last "admm" event stay in the solve span's own self time. extra
// receives psl.iter_us, the time per iteration between the first and
// last "admm" events.
func solveSpan(ctx context.Context, tr *tracer, parent spanID, name string, solver core.Solver, p *core.Problem, extra map[string][]float64, opts ...core.SolveOption) (*core.Selection, error) {
	if tr == nil {
		return solver.Solve(ctx, p, opts...)
	}
	var firstAdmm, lastAdmm, round time.Time
	var firstIter, lastIter int
	progress := func(ev core.Event) {
		switch ev.Phase {
		case "admm":
			now := time.Now() //lint:wallclock timing-only: span bounds, never a solver input
			if firstAdmm.IsZero() {
				firstAdmm, firstIter = now, ev.Iteration
			}
			lastAdmm, lastIter = now, ev.Iteration
		case "round":
			round = time.Now() //lint:wallclock timing-only: span bounds, never a solver input
		}
	}
	id := tr.begin(name, parent)
	start := time.Now() //lint:wallclock timing-only: span bounds, never a solver input
	sel, err := solver.Solve(ctx, p, append(opts, core.WithProgress(progress))...)
	end := time.Now() //lint:wallclock timing-only: span bounds, never a solver input
	tr.end(id)
	if err != nil {
		return nil, err
	}
	tr.record("core.ground", id, start, firstAdmm)
	tr.record("psl.admm", id, firstAdmm, lastAdmm)
	tr.record("core.round", id, round, end)
	if n := lastIter - firstIter; n > 0 && extra != nil {
		extra["psl.iter_us"] = append(extra["psl.iter_us"], float64(lastAdmm.Sub(firstAdmm).Nanoseconds())/1e3/float64(n))
	}
	return sel, nil
}

// outcomeOf is the oracle's view of a selection.
func outcomeOf(sel *core.Selection) outcome {
	return outcome{Objective: sel.Objective.Total(), Digest: digestOf(sel.Indices())}
}
