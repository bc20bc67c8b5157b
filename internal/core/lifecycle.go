package core

// Lifecycle mutations beyond AppendTarget: target removals, source
// deltas, and candidate addition/retirement. Together with appends
// they make the full streaming contract (docs/LIFECYCLE.md): every
// mutation keeps the prepared evidence value-identical to a cold
// Prepare of the mutated problem, updates the version counters
// coherently, and stamps the returned delta with the mutation
// sequence number Evaluators enforce.

import (
	"fmt"

	"schemamap/internal/cover"
	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

// RemoveTarget retracts target tuples. Each tuple must currently be in
// J — an unknown tuple returns a descriptive error and leaves the
// problem untouched. Duplicates within one batch are removed once.
//
// The removal tombstones the tuples' index slots (live ids stay
// stable; JIndex().Len() does not shrink, NumLive does), re-enumerates
// only the chase blocks whose pattern touches a removed tuple, and
// rebuilds the incidence when any coverage row changed. Errors can
// grow: chase tuples whose only homomorphic image was removed become
// creates-errors again. Like AppendTarget it must not run concurrently
// with Solve/Objective on the same Problem; Evaluators created before
// the removal must apply the returned delta (ExtendTarget) or call
// Resync — using them unsynced panics.
func (p *Problem) RemoveTarget(tuples []data.Tuple) (*TargetDelta, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Prepare()
	if err := p.CheckFresh(); err != nil {
		return nil, err
	}
	if p.tracker == nil {
		p.tracker, p.analyses = cover.BuildTracker(p.I, p.jidx, p.Candidates, p.CoverOptions, 0)
	}
	seen := make(map[int32]bool, len(tuples))
	var removed []data.Tuple
	var ids []int32
	for _, t := range tuples {
		j := p.jidx.IndexOf(t)
		if j < 0 {
			return nil, fmt.Errorf("core: RemoveTarget: tuple %s is not in the target", t)
		}
		if seen[int32(j)] {
			continue
		}
		seen[int32(j)] = true
		removed = append(removed, t)
		ids = append(ids, int32(j))
	}
	if len(ids) == 0 {
		return &TargetDelta{OldTuples: p.jidx.Len(), NewTuples: p.jidx.Len(), Seq: p.mutSeq.Load()}, nil
	}
	for _, t := range removed {
		p.J.Remove(t)
	}
	delta := p.tracker.Remove(removed, ids, p.analyses, 0)
	if len(delta.PairsChanged) > 0 {
		// Some candidate covered a removed tuple (or a survivor changed
		// degree): rebuild the inverted rows. Purely uncovered removals
		// already have empty rows — nothing to do.
		p.incidence = cover.BuildIncidence(p.jidx.Len(), p.analyses)
	}
	// Unconditional: split caches are keyed on (epoch, slot count) and
	// tombstoning keeps the slot count, so the epoch must move.
	p.epoch.Add(1)
	p.groundMu.Lock()
	if p.ground != nil && !p.ground.applyDelta(p, delta) {
		p.ground = nil
	}
	p.groundMu.Unlock()
	p.jVer = p.J.Version()
	delta.Seq = p.mutSeq.Add(1)
	return delta, nil
}

// SourceDelta describes a batch mutation of the source instance I.
type SourceDelta struct {
	// Add lists tuples to insert (existing duplicates are ignored).
	Add []data.Tuple
	// Remove lists tuples to delete (missing tuples are ignored).
	Remove []data.Tuple
}

// ApplySourceDelta mutates the source instance and re-derives the
// evidence of exactly the candidates whose tgd body reads a changed
// relation — a source delta dirties their chase blocks, not just the
// cover evidence, so those candidates are re-chased (unchanged blocks
// are still reused via the retained block memo). I's version counter
// is bumped and re-recorded, keeping CheckFresh green.
//
// The retained collective grounding is dropped when any evidence
// changed (factor slots cannot survive a re-chase); the next
// collective solve rebuilds cold. The returned delta carries the
// changed tuples/errors so Evaluators can ExtendTarget across it.
func (p *Problem) ApplySourceDelta(d SourceDelta) (*TargetDelta, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Prepare()
	if err := p.CheckFresh(); err != nil {
		return nil, err
	}
	if p.tracker == nil {
		p.tracker, p.analyses = cover.BuildTracker(p.I, p.jidx, p.Candidates, p.CoverOptions, 0)
	}
	changed := make(map[string]bool)
	for _, t := range d.Add {
		if p.I.Add(t) {
			changed[t.Rel] = true
		}
	}
	for _, t := range d.Remove {
		if p.I.Remove(t) {
			changed[t.Rel] = true
		}
	}
	p.iVer = p.I.Version()
	if len(changed) == 0 {
		return &TargetDelta{OldTuples: p.jidx.Len(), NewTuples: p.jidx.Len(), Seq: p.mutSeq.Load()}, nil
	}
	delta := p.tracker.ApplySourceDelta(p.I, changed, p.Candidates, p.analyses, 0)
	if len(delta.PairsChanged) > 0 || len(delta.ChangedTuples) > 0 || len(delta.ErrorsChanged) > 0 {
		if len(delta.PairsChanged) > 0 {
			p.incidence = cover.BuildIncidence(p.jidx.Len(), p.analyses)
		}
		p.epoch.Add(1)
		p.groundMu.Lock()
		p.ground = nil
		p.groundMu.Unlock()
		delta.Seq = p.mutSeq.Add(1)
	} else {
		delta.Seq = p.mutSeq.Load()
	}
	return delta, nil
}

// AddCandidates appends candidates to the problem (new correspondences
// arriving in a session), analysing them against the current target
// and extending the evidence in place. The candidate slice is copied
// to a fresh backing array, so forks sharing the old one are
// unaffected. Candidates are not deduplicated against the existing
// set; callers wanting set semantics filter first.
//
// Candidate churn changes |C|, which no TargetDelta can express:
// existing Evaluators become permanently stale (their next use
// panics) and warm selections shorter than the new |C| are tolerated
// by the solvers' warm paths. The retained grounding and any shard
// split are dropped.
func (p *Problem) AddCandidates(cands tgd.Mapping) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Prepare()
	if err := p.CheckFresh(); err != nil {
		return 0, err
	}
	if len(cands) == 0 {
		return 0, nil
	}
	if p.tracker == nil {
		p.tracker, p.analyses = cover.BuildTracker(p.I, p.jidx, p.Candidates, p.CoverOptions, 0)
	}
	newAn := p.tracker.AddCandidates(p.I, cands, 0)
	p.Candidates = append(append(tgd.Mapping{}, p.Candidates...), cands...)
	p.analyses = append(p.analyses, newAn...)
	p.incidence = cover.BuildIncidence(p.jidx.Len(), p.analyses)
	p.epoch.Add(1)
	p.groundMu.Lock()
	p.ground = nil
	p.groundMu.Unlock()
	p.mutSeq.Add(1)
	return len(cands), nil
}

// RemoveCandidates retires candidates by their current indices,
// compacting the candidate set, analyses (TGDIndex renumbered) and
// retained streaming state. An out-of-range index returns an error
// and leaves the problem untouched; duplicate indices are retired
// once. The same staleness rules as AddCandidates apply.
func (p *Problem) RemoveCandidates(indices []int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Prepare()
	if err := p.CheckFresh(); err != nil {
		return err
	}
	keep := make([]bool, len(p.Candidates))
	for i := range keep {
		keep[i] = true
	}
	n := 0
	for _, i := range indices {
		if i < 0 || i >= len(keep) {
			return fmt.Errorf("core: RemoveCandidates: index %d out of range (have %d candidates)", i, len(keep))
		}
		if keep[i] {
			keep[i] = false
			n++
		}
	}
	if n == 0 {
		return nil
	}
	if p.tracker == nil {
		p.tracker, p.analyses = cover.BuildTracker(p.I, p.jidx, p.Candidates, p.CoverOptions, 0)
	}
	p.tracker.RemoveCandidates(keep)
	kept := make(tgd.Mapping, 0, len(keep)-n)
	w := 0
	for i, k := range keep {
		if !k {
			continue
		}
		kept = append(kept, p.Candidates[i])
		p.analyses[w] = p.analyses[i]
		p.analyses[w].TGDIndex = w
		w++
	}
	p.Candidates = kept
	p.analyses = p.analyses[:w]
	p.incidence = cover.BuildIncidence(p.jidx.Len(), p.analyses)
	p.epoch.Add(1)
	p.groundMu.Lock()
	p.ground = nil
	p.groundMu.Unlock()
	p.mutSeq.Add(1)
	return nil
}

// ForkDetached is Fork for sessions that will also mutate the source:
// it clones I as well as J, so ApplySourceDelta on the fork never
// affects problems sharing the original instances. Like Fork, the
// returned problem carries a copy of the prepared evidence.
func (p *Problem) ForkDetached() *Problem { return p.fork(true) }

// MutationSeq returns the problem's mutation sequence number: it
// advances once per evidence-changing lifecycle mutation (append,
// remove, source delta, candidate churn). Deltas are stamped with it
// and Evaluators panic when used across an unapplied gap.
func (p *Problem) MutationSeq() uint64 { return p.mutSeq.Load() }

// NumLiveTuples returns the number of live target tuples (slots minus
// tombstones) — the target size wire responses report.
func (p *Problem) NumLiveTuples() int {
	p.Prepare()
	return p.jidx.NumLive()
}
