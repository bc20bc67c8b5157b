package core

import (
	"sort"

	"schemamap/internal/cover"
	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

// Subproblem extracts a prepared sub-instance of the problem spanning
// the given candidate and target-tuple indices: candidate k of the
// subproblem is parent candidate candIdx[k], and the target holds
// exactly the tuples tupleIdx (parent JIndex ids). The prepared
// evidence is *sliced*, not recomputed — no chase or homomorphism
// search runs — so building a subproblem costs O(|tuples| + evidence
// touched).
//
// The intended caller is connected-component sharding
// (internal/shard): when the index sets are closed under the evidence
// — every CoverPair of a chosen candidate lands on a chosen tuple —
// the subproblem's objective decomposes the parent's exactly (see
// Objective). Pairs pointing outside tupleIdx are a programming error
// and panic, because silently dropping evidence would corrupt every
// solver downstream.
//
// The subproblem shares the parent's source instance and tgd pointers
// and is born prepared: Prepare on it is a no-op, and solvers can run
// on it immediately and concurrently. It is detached from the parent —
// AppendTarget on either does not affect the other.
func (p *Problem) Subproblem(candIdx, tupleIdx []int) *Problem {
	p.Prepare()
	p.mustFresh()

	// Sub-target: adding tuples in ascending parent-index order keeps
	// the relation grouping of the parent instance, so the fresh
	// JIndex enumerates them in insertion order and the old→new tuple
	// map is monotone (Pairs stay sorted after remapping; the sort
	// below is a no-op safety net).
	subJ := data.NewInstance()
	oldToNew := make(map[int32]int32, len(tupleIdx))
	for _, j := range tupleIdx {
		subJ.Add(p.jidx.Tuples[j])
	}
	subIdx := cover.IndexJ(subJ)
	for _, j := range tupleIdx {
		nj := subIdx.IndexOf(p.jidx.Tuples[j])
		if nj < 0 {
			panic("core: Subproblem tuple lost during sub-instance construction")
		}
		oldToNew[int32(j)] = int32(nj)
	}

	cands := make(tgd.Mapping, len(candIdx))
	analyses := make([]cover.Analysis, len(candIdx))
	for k, ci := range candIdx {
		cands[k] = p.Candidates[ci]
		a := p.analyses[ci]
		pairs := make([]cover.CoverPair, len(a.Pairs))
		for i, pr := range a.Pairs {
			nj, ok := oldToNew[pr.J]
			if !ok {
				panic("core: Subproblem index sets not evidence-closed: candidate covers a tuple outside the shard")
			}
			pairs[i] = cover.CoverPair{J: nj, Cov: pr.Cov}
		}
		sort.Slice(pairs, func(x, y int) bool { return pairs[x].J < pairs[y].J })
		a.TGDIndex = k
		a.Pairs = pairs
		analyses[k] = a
	}

	sub := &Problem{
		I:            p.I,
		J:            subJ,
		Candidates:   cands,
		Weights:      p.Weights,
		CoverOptions: p.CoverOptions,
	}
	sub.prepareOnce.Do(func() {
		sub.jidx = subIdx
		sub.analyses = analyses
		sub.incidence = cover.BuildIncidence(subIdx.Len(), analyses)
		sub.iVer, sub.jVer = sub.I.Version(), sub.J.Version()
		sub.prepared.Store(true)
	})
	return sub
}
