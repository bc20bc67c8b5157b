package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"schemamap/internal/cover"
	"schemamap/internal/data"
	"schemamap/internal/ibench"
)

// Fork must give a session-private problem: appends to the fork leave
// the original's target and evidence untouched, and both sides reach
// the evidence a cold Prepare over their respective targets would.
func TestForkIsolatesAppends(t *testing.T) {
	p := appendixProblem()
	p.PrepareStreaming(1)
	origLen := p.J.Len()
	origObj := p.Objective(allOn(p.NumCandidates())).Total()

	f := p.Fork()
	if f.J == p.J {
		t.Fatal("fork shares the target instance")
	}
	if f.I != p.I {
		t.Fatal("fork should share the immutable source instance")
	}
	if !f.J.Equal(p.J) {
		t.Fatal("forked target differs from the original before any append")
	}

	extra := data.NewTuple("task", "p9", "e9", "o9")
	if _, err := f.AppendTarget([]data.Tuple{extra}); err != nil {
		t.Fatalf("AppendTarget on fork: %v", err)
	}
	if p.J.Len() != origLen {
		t.Fatalf("append to fork grew the original target: %d -> %d", origLen, p.J.Len())
	}
	if err := p.CheckFresh(); err != nil {
		t.Fatalf("original went stale after fork append: %v", err)
	}
	if got := p.Objective(allOn(p.NumCandidates())).Total(); got != origObj {
		t.Fatalf("original objective changed after fork append: %g -> %g", origObj, got)
	}

	// The fork's incremental evidence must match a cold problem over
	// the grown target.
	cold := NewProblem(p.I, f.J.Clone(), p.Candidates)
	cold.Prepare()
	sel := allOn(f.NumCandidates())
	if got, want := f.Objective(sel).Total(), cold.Objective(sel).Total(); got != want {
		t.Fatalf("fork objective %g != cold objective %g", got, want)
	}

	// Both remain solvable.
	for _, prob := range []*Problem{p, f} {
		if _, err := (GreedySolver{}).Solve(context.Background(), prob); err != nil {
			t.Fatalf("solve after fork: %v", err)
		}
	}
}

func allOn(n int) []bool {
	sel := make([]bool, n)
	for i := range sel {
		sel[i] = true
	}
	return sel
}

// evidenceSnapshot is a deep value copy of a problem's prepared state,
// for checking that mutations elsewhere left it untouched.
type evidenceSnapshot struct {
	analyses       []cover.Analysis
	slots          []string
	live           []bool
	rowCands       [][]int32
	rowCovs        [][]float64
	target, source string
	epoch, seq     uint64
}

func snapshotOf(p *Problem) evidenceSnapshot {
	s := evidenceSnapshot{
		target: fmt.Sprint(p.J.All()),
		source: fmt.Sprint(p.I.All()),
		epoch:  p.EvidenceEpoch(),
		seq:    p.MutationSeq(),
	}
	for _, a := range p.Analyses() {
		a.Pairs = slices.Clone(a.Pairs)
		s.analyses = append(s.analyses, a)
	}
	jidx := p.JIndex()
	for j, tu := range jidx.Tuples {
		s.slots = append(s.slots, tu.String())
		s.live = append(s.live, jidx.Live(j))
	}
	inc := p.Incidence()
	for j := 0; j < inc.NumTuples(); j++ {
		cands, covs := inc.Row(j)
		s.rowCands = append(s.rowCands, slices.Clone(cands))
		s.rowCovs = append(s.rowCovs, slices.Clone(covs))
	}
	return s
}

func assertUnchanged(t *testing.T, label, who string, p *Problem, want evidenceSnapshot) {
	t.Helper()
	if got := snapshotOf(p); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the %s's evidence changed", label, who)
	}
}

// assertMatchesCold checks a mutated problem against a cold Prepare of
// its live instances: evidence value-identical, and the retained MRF
// factor-for-factor identical to a cold buildDirectMRF.
func assertMatchesCold(t *testing.T, label string, p *Problem) {
	t.Helper()
	if err := p.CheckFresh(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	cold := coldProblemOf(p)
	assertEvidenceMatchesCold(t, label, p, cold)
	got := canonicalMRF(t, p, p.directGrounding().mrf)
	want := canonicalMRF(t, cold, CollectiveSolver{}.buildDirectMRF(cold))
	diffCanonical(t, label, got, want)
}

// A fork is born prepared: it carries the parent's evidence, streaming
// state, epoch and sequence, but no retained grounding, so its first
// collective solve is bit-identical to one on a cold Prepare of the
// same target. Appends and removals on it then stay cold-identical
// while the parent keeps its pre-fork evidence.
func TestForkIsPreparedAndIsolated(t *testing.T) {
	sc, err := ibench.Generate(streamConfigs()[1])
	if err != nil {
		t.Fatal(err)
	}
	stream, err := ibench.SplitTarget(sc, ibench.StreamConfig{Batches: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	parent := NewProblem(sc.I, stream.Initial.Clone(), sc.Candidates)
	parent.PrepareStreaming(0)
	ctx := context.Background()
	if _, err := (CollectiveSolver{}).Solve(ctx, parent); err != nil {
		t.Fatal(err) // leaves a retained grounding on the parent
	}

	// The fork's target lists its tuples in the parent's order, so a
	// cold problem over a clone of it indexes them identically.
	f := parent.Fork()
	cold := NewProblem(sc.I, f.J.Clone(), sc.Candidates)
	got, err := (CollectiveSolver{}).Solve(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (CollectiveSolver{}).Solve(ctx, cold)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Chosen, want.Chosen) || got.Objective != want.Objective || got.Iterations != want.Iterations {
		t.Fatalf("fork's first solve %v %v (%d iterations) differs from cold %v %v (%d iterations)",
			got.Indices(), got.Objective, got.Iterations, want.Indices(), want.Objective, want.Iterations)
	}

	if _, err := parent.AppendTarget(stream.Batches[0]); err != nil {
		t.Fatal(err) // moves the parent's epoch and sequence off zero
	}
	snap := snapshotOf(parent)
	f = parent.Fork()
	if !f.prepared.Load() || f.tracker == nil || f.jidx == parent.jidx || f.tracker == parent.tracker {
		t.Fatal("fork is not prepared with its own copy of the streaming state")
	}
	f.groundMu.Lock()
	grounded := f.ground != nil
	f.groundMu.Unlock()
	if grounded {
		t.Fatal("fork inherited the retained grounding")
	}
	if f.EvidenceEpoch() != parent.EvidenceEpoch() || f.MutationSeq() != parent.MutationSeq() {
		t.Fatalf("fork epoch/seq %d/%d, parent %d/%d", f.EvidenceEpoch(), f.MutationSeq(), parent.EvidenceEpoch(), parent.MutationSeq())
	}
	assertMatchesCold(t, "fork", f)
	assertUnchanged(t, "fork", "parent", parent, snap)

	prev, err := (CollectiveSolver{}).Solve(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	for k, batch := range stream.Batches[1:] {
		label := fmt.Sprintf("append batch %d", k+1)
		if _, err := f.AppendTarget(batch); err != nil {
			t.Fatal(err)
		}
		assertMatchesCold(t, label, f)
		assertUnchanged(t, label, "parent", parent, snap)
		if prev, err = (CollectiveSolver{}).Solve(ctx, f, WithWarmStart(prev)); err != nil {
			t.Fatal(err)
		}
	}
	initial := stream.Initial.All()
	if _, err := f.RemoveTarget(initial[:3]); err != nil {
		t.Fatal(err)
	}
	assertMatchesCold(t, "remove", f)
	assertUnchanged(t, "remove", "parent", parent, snap)

	// The other direction: the parent's retained state survived the
	// fork (including the pattern caches it filled) and its mutations
	// leave the fork alone.
	// The parent appends another batch than the fork's first, so the
	// two sides give the same new ids to different tuples.
	fsnap := snapshotOf(f)
	if _, err := parent.RemoveTarget(initial[3:5]); err != nil {
		t.Fatal(err)
	}
	if _, err := parent.AppendTarget(stream.Batches[3]); err != nil {
		t.Fatal(err)
	}
	assertMatchesCold(t, "parent mutated after the fork", parent)
	assertUnchanged(t, "parent mutated after the fork", "fork", f, fsnap)
	// The fork's retained index still probes its own tuples.
	if _, err := f.RemoveTarget(append(initial[5:8:8], stream.Batches[1][:2]...)); err != nil {
		t.Fatal(err)
	}
	assertMatchesCold(t, "fork mutated after the parent", f)
}

// Two sibling forks of one parent — a Fork and a ForkDetached — are
// mutated alternately through a churn plan (appends, removals,
// candidate additions and retirements, and source deltas on the
// detached one). After every mutation the mutated fork is identical to
// a cold Prepare, and the parent and the other sibling are unchanged.
func TestSiblingForksMutatedAlternately(t *testing.T) {
	sc, err := ibench.Generate(streamConfigs()[0])
	if err != nil {
		t.Fatal(err)
	}
	churn, err := ibench.SplitChurn(sc, ibench.ChurnConfig{Steps: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	parent := NewProblem(sc.I, churn.Initial.Clone(), churn.Candidates)
	parent.PrepareStreaming(0)
	snap := snapshotOf(parent)
	forks := [2]*Problem{parent.Fork(), parent.ForkDetached()}
	if forks[0].I != parent.I || forks[1].I == parent.I {
		t.Fatal("Fork must share the source instance and ForkDetached must clone it")
	}
	var srcRemoved []data.Tuple
	for k, step := range churn.Steps {
		for side, f := range forks {
			sib := forks[1-side]
			mutate := func(op string, fn func() error) {
				t.Helper()
				label := fmt.Sprintf("step %d fork %d %s", k, side, op)
				sibSnap := snapshotOf(sib)
				if err := fn(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertMatchesCold(t, label, f)
				assertUnchanged(t, label, "parent", parent, snap)
				assertUnchanged(t, label, "sibling", sib, sibSnap)
			}
			mutate("append", func() error { _, err := f.AppendTarget(step.Append); return err })
			if len(step.Remove) > 0 {
				mutate("remove", func() error { _, err := f.RemoveTarget(step.Remove); return err })
			}
			if len(step.AddCandidates) > 0 {
				mutate("add candidates", func() error { _, err := f.AddCandidates(step.AddCandidates); return err })
			}
			if side == 0 && k%2 == 1 && f.NumCandidates() > 2 {
				mutate("retire candidate", func() error { return f.RemoveCandidates([]int{k % f.NumCandidates()}) })
			}
			if side == 1 {
				if k%2 == 0 {
					rel := f.I.Relations()[k%len(f.I.Relations())]
					tu := f.I.Tuples(rel)[0]
					srcRemoved = append(srcRemoved, tu)
					mutate("source delta (remove)", func() error {
						_, err := f.ApplySourceDelta(SourceDelta{Remove: []data.Tuple{tu}})
						return err
					})
				} else {
					tu := srcRemoved[len(srcRemoved)-1]
					mutate("source delta (add)", func() error {
						_, err := f.ApplySourceDelta(SourceDelta{Add: []data.Tuple{tu}})
						return err
					})
				}
			}
		}
	}
}

// A parent prepared without streaming state forks what it has — the
// fork's first mutation builds the tracker — and an unprepared or
// stale parent forks unprepared, so the fork prepares from its own
// instances.
func TestForkOfPartlyPreparedParents(t *testing.T) {
	sc, err := ibench.Generate(streamConfigs()[0])
	if err != nil {
		t.Fatal(err)
	}
	stream, err := ibench.SplitTarget(sc, ibench.StreamConfig{Batches: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	plain := NewProblem(sc.I, stream.Initial.Clone(), sc.Candidates)
	plain.PrepareN(1)
	f := plain.Fork()
	if !f.prepared.Load() || f.tracker != nil {
		t.Fatal("fork of a plainly prepared parent should be prepared without a tracker")
	}
	if _, err := f.AppendTarget(stream.Batches[0]); err != nil {
		t.Fatal(err)
	}
	assertMatchesCold(t, "fork of a plain parent", f)

	unprepared := NewProblem(sc.I, stream.Initial.Clone(), sc.Candidates)
	if g := unprepared.Fork(); g.prepared.Load() {
		t.Fatal("fork of an unprepared parent should be unprepared")
	}

	stale := NewProblem(sc.I, stream.Initial.Clone(), sc.Candidates)
	stale.PrepareStreaming(1)
	stale.J.Add(stream.Batches[0][0]) // direct mutation: the evidence is stale
	g := stale.Fork()
	if g.prepared.Load() {
		t.Fatal("fork of a stale parent copied stale evidence")
	}
	if _, err := g.AppendTarget(stream.Batches[1]); err != nil {
		t.Fatal(err)
	}
	assertMatchesCold(t, "fork of a stale parent", g)
}
