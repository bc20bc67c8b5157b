package cover

// Lifecycle mutations beyond Append: target removals, source-instance
// deltas, and candidate addition/retirement. They share Append's
// retained state (delta.go) and its dirty-block discipline:
//
//   - Remove tombstones target slots. Any block contributing coverage
//     on a removed tuple necessarily has a block tuple whose constant
//     pattern matches it, so pattern-dirty detection against the
//     removed tuples finds every block whose enumeration can change;
//     clean blocks keep pairs that reference live ids only. Errors can
//     only grow: embedded chase tuples (okTuples) whose pattern maps
//     onto a removed tuple are re-probed against the tombstoned index
//     and migrate back to errTuples when their image vanished.
//   - ApplySourceDelta re-chases exactly the candidates whose tgd body
//     reads a changed relation — a source delta invalidates chase
//     blocks, not just cover evidence — seeding the block memo with
//     every retained block so shared unchanged blocks are never
//     re-enumerated.
//   - AddCandidates analyses the new candidates against the current
//     target (block memo seeded likewise); RemoveCandidates compacts
//     the retained per-candidate state and sweeps orphaned blocks.
//
// All of them keep the Tracker's core invariant: the analyses slice is
// value-identical to a cold analysis of the current live target.

import (
	"sort"
	"sync"

	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

// Remove applies a target removal: removed lists the tuples being
// retracted and ids their (live, deduped) slot ids — core.Problem
// resolves them. The tracker tombstones the slots, re-enumerates only
// the blocks whose pattern touches a removed tuple, updates analyses
// in place, and reports the delta (RemovedTuples set, slot count
// unchanged).
func (t *Tracker) Remove(removed []data.Tuple, ids []int32, analyses []Analysis, workers int) *TrackerDelta {
	n := t.jidx.Len()
	out := &TrackerDelta{OldTuples: n, NewTuples: n}
	if len(ids) == 0 {
		return out
	}
	t.jidx.Remove(ids)
	out.RemovedTuples = append([]int32(nil), ids...)
	sort.Slice(out.RemovedTuples, func(a, b int) bool { return out.RemovedTuples[a] < out.RemovedTuples[b] })

	// 1. Dirty detection, mirroring Append step 1 with the removed
	// tuples in place of the appended ones.
	removedByRel := make(map[string][]data.Tuple)
	for _, rt := range removed {
		removedByRel[rt.Rel] = append(removedByRel[rt.Rel], rt)
	}
	patDirty := make(map[string]bool)
	tupleDirty := func(pat string, bt data.Tuple) bool {
		if v, ok := patDirty[pat]; ok {
			return v
		}
		dirty := false
		for _, rt := range removedByRel[bt.Rel] {
			if data.MatchConstPositions(bt, rt) {
				dirty = true
				break
			}
		}
		patDirty[pat] = dirty
		return dirty
	}
	var dirtyKeys []string
	//lint:commutative collects dirty keys (dirtiness is per-block; memo is pattern-keyed) and sorts them below
	for key, tb := range t.blocks {
		if tb.reps == nil {
			tb.pats, tb.reps = distinctPatterns(tb.tuples)
		}
		for k, pat := range tb.pats {
			if tupleDirty(pat, tb.reps[k]) {
				dirtyKeys = append(dirtyKeys, key)
				break
			}
		}
	}
	sort.Strings(dirtyKeys)

	// 2. Re-enumerate dirty blocks against the tombstoned index (the
	// candidate probe filters dead ids, so this is the enumeration a
	// cold analysis of the shrunken target would run).
	changedKeys := make(map[string]bool, len(dirtyKeys))
	if len(dirtyKeys) > 0 {
		changed := make([]bool, len(dirtyKeys))
		runWorkers(t.jidx, len(dirtyKeys), workers, func(w *analyzeWorker, k int) {
			tb := t.blocks[dirtyKeys[k]]
			pairs := w.enumerateBlockPairs(tb.tuples, t.opts)
			if !pairsEqual(pairs, tb.pairs) {
				tb.pairs = pairs
				changed[k] = true
			}
		})
		for k, c := range changed {
			if c {
				changedKeys[dirtyKeys[k]] = true
			}
		}
	}

	// 3. Rebuild the Pairs of candidates owning a changed block
	// (Append step 3 verbatim). Removed ids are excluded from
	// ChangedTuples — RemovedTuples already reports them.
	removedSet := make(map[int32]bool, len(ids))
	for _, id := range ids {
		removedSet[id] = true
	}
	touched := make(map[int32]bool)
	t.remergeAffected(changedKeys, analyses, int32(n), touched, out)
	out.ChangedTuples = make([]int32, 0, len(touched))
	//lint:commutative filtered collect-then-sort: ChangedTuples is sorted immediately below
	for j := range touched {
		if !removedSet[j] {
			out.ChangedTuples = append(out.ChangedTuples, j)
		}
	}
	sort.Slice(out.ChangedTuples, func(a, b int) bool { return out.ChangedTuples[a] < out.ChangedTuples[b] })

	// 4. Errors grow: an embedded chase tuple loses its image iff it
	// could map onto a removed tuple and the tombstoned index no longer
	// embeds it. Verdicts are canonical-pattern determined, so both the
	// removal probe and the re-embedding check are memoised per
	// pattern; the fresh searcher sees the tombstones.
	mapsRemoved := make(map[string]bool)
	mapsToRemoved := func(pat string, ct data.Tuple) bool {
		if v, ok := mapsRemoved[pat]; ok {
			return v
		}
		ok := false
		for _, rt := range removedByRel[ct.Rel] {
			if data.TupleMapsTo(ct, rt) {
				ok = true
				break
			}
		}
		mapsRemoved[pat] = ok
		return ok
	}
	searcher := data.NewSearcher(t.jidx.Index())
	if t.okPats == nil {
		t.okPats = make([][]string, len(t.okTuples))
	}
	for i, oks := range t.okTuples {
		pats := t.okPats[i]
		if pats == nil && len(oks) > 0 {
			pats = canonPatterns(oks)
			t.okPats[i] = pats
		}
		kept := oks[:0]
		keptPats := pats[:0]
		lost := false
		for k, ct := range oks {
			if mapsToRemoved(pats[k], ct) && !searcher.TupleEmbeds(ct) {
				// Image gone: migrate back to the error set.
				t.errTuples[i] = append(t.errTuples[i], ct)
				if t.errPats != nil && t.errPats[i] != nil {
					t.errPats[i] = append(t.errPats[i], pats[k])
				}
				lost = true
				continue
			}
			kept = append(kept, ct)
			keptPats = append(keptPats, pats[k])
		}
		if lost {
			t.okTuples[i] = kept
			t.okPats[i] = keptPats
			analyses[i].Errors = float64(len(t.errTuples[i]))
			out.ErrorsChanged = append(out.ErrorsChanged, int32(i))
		}
	}
	return out
}

// remergeAffected rebuilds the Pairs of every candidate owning a block
// in changedKeys by max-merging its blocks' cached contributions,
// recording coverage diffs below limit into touched and the candidate
// ids into out.PairsChanged (Append step 3, shared with Remove).
func (t *Tracker) remergeAffected(changedKeys map[string]bool, analyses []Analysis, limit int32, touched map[int32]bool, out *TrackerDelta) {
	if len(changedKeys) == 0 {
		return
	}
	w := newAnalyzeWorker(t.jidx)
	for i, keys := range t.candKeys {
		affected := false
		for _, key := range keys {
			if changedKeys[key] {
				affected = true
				break
			}
		}
		if !affected {
			continue
		}
		for _, key := range keys {
			for _, pr := range t.blocks[key].pairs {
				if pr.Cov > w.acc[pr.J] {
					if w.acc[pr.J] == 0 {
						w.accTouch = append(w.accTouch, pr.J)
					}
					w.acc[pr.J] = pr.Cov
				}
			}
		}
		newPairs := w.drain(&w.acc, &w.accTouch)
		diffPairs(analyses[i].Pairs, newPairs, limit, touched)
		analyses[i].Pairs = newPairs
		out.PairsChanged = append(out.PairsChanged, int32(i))
	}
}

// ApplySourceDelta re-analyses the candidates whose tgd body reads one
// of the changed relations against the (already mutated) source
// instance I, updating analyses in place. Unlike target deltas this
// re-runs the chase for the affected candidates — their blocks and
// error sets are invalid, not just their cover pairs — but the block
// memo is seeded with every retained block, so enumerations shared
// with clean candidates (or unchanged across the delta) are reused.
func (t *Tracker) ApplySourceDelta(I *data.Instance, changedRels map[string]bool, candidates tgd.Mapping, analyses []Analysis, workers int) *TrackerDelta {
	n := t.jidx.Len()
	out := &TrackerDelta{OldTuples: n, NewTuples: n}
	var affected []int
	for i, d := range candidates {
		for _, a := range d.Body {
			if changedRels[a.Rel] {
				affected = append(affected, i)
				break
			}
		}
	}
	if len(affected) == 0 {
		return out
	}
	var memo sync.Map
	//lint:commutative per-key copy into a sync.Map; each key is stored once
	for k, v := range t.blocks {
		memo.Store(k, v)
	}
	sink := newTrackSink(len(candidates))
	newAn := make([]Analysis, len(affected))
	runWorkers(t.jidx, len(affected), workers, func(w *analyzeWorker, k int) {
		i := affected[k]
		newAn[k] = w.analyzeOne(i, candidates[i], I, &memo, t.opts, sink)
	})
	touched := make(map[int32]bool)
	for k, i := range affected {
		na := newAn[k]
		diffPairs(analyses[i].Pairs, na.Pairs, int32(n), touched)
		if !pairsEqual(analyses[i].Pairs, na.Pairs) {
			out.PairsChanged = append(out.PairsChanged, int32(i))
		}
		if na.Errors != analyses[i].Errors {
			out.ErrorsChanged = append(out.ErrorsChanged, int32(i))
		}
		analyses[i] = na
		t.candKeys[i] = sink.keys[i]
		t.errTuples[i] = sink.errs[i]
		t.okTuples[i] = sink.oks[i]
		if t.errPats != nil {
			t.errPats[i] = nil
		}
		if t.okPats != nil {
			t.okPats[i] = nil
		}
	}
	out.ChangedTuples = make([]int32, 0, len(touched))
	for j := range touched {
		out.ChangedTuples = append(out.ChangedTuples, j)
	}
	sort.Slice(out.ChangedTuples, func(a, b int) bool { return out.ChangedTuples[a] < out.ChangedTuples[b] })
	t.adoptBlocks(&memo)
	t.sweepBlocks()
	return out
}

// AddCandidates analyses the added candidates against the current
// target, extending the retained state; the returned analyses continue
// the existing candidate indices (TGDIndex = previous count + k).
func (t *Tracker) AddCandidates(I *data.Instance, added tgd.Mapping, workers int) []Analysis {
	base := len(t.candKeys)
	sink := newTrackSink(base + len(added))
	var memo sync.Map
	//lint:commutative per-key copy into a sync.Map; each key is stored once
	for k, v := range t.blocks {
		memo.Store(k, v)
	}
	newAn := make([]Analysis, len(added))
	runWorkers(t.jidx, len(added), workers, func(w *analyzeWorker, k int) {
		newAn[k] = w.analyzeOne(base+k, added[k], I, &memo, t.opts, sink)
	})
	for k := range added {
		t.candKeys = append(t.candKeys, sink.keys[base+k])
		t.errTuples = append(t.errTuples, sink.errs[base+k])
		t.okTuples = append(t.okTuples, sink.oks[base+k])
		if t.errPats != nil {
			t.errPats = append(t.errPats, nil)
		}
		if t.okPats != nil {
			t.okPats = append(t.okPats, nil)
		}
	}
	t.adoptBlocks(&memo)
	return newAn
}

// RemoveCandidates compacts the retained per-candidate state down to
// the candidates with keep[i] true (the caller compacts its own
// candidate and analysis slices in the same order) and sweeps blocks
// no surviving candidate references.
func (t *Tracker) RemoveCandidates(keep []bool) {
	w := 0
	for i, k := range keep {
		if !k {
			continue
		}
		t.candKeys[w] = t.candKeys[i]
		t.errTuples[w] = t.errTuples[i]
		t.okTuples[w] = t.okTuples[i]
		if t.errPats != nil {
			t.errPats[w] = t.errPats[i]
		}
		if t.okPats != nil {
			t.okPats[w] = t.okPats[i]
		}
		w++
	}
	t.candKeys = t.candKeys[:w]
	t.errTuples = t.errTuples[:w]
	t.okTuples = t.okTuples[:w]
	if t.errPats != nil {
		t.errPats = t.errPats[:w]
	}
	if t.okPats != nil {
		t.okPats = t.okPats[:w]
	}
	t.sweepBlocks()
}

// adoptBlocks folds a block memo (retained blocks plus any newly
// enumerated ones) back into the tracker's block map.
func (t *Tracker) adoptBlocks(memo *sync.Map) {
	memo.Range(func(k, v any) bool {
		t.blocks[k.(string)] = v.(*trackedBlock)
		return true
	})
}

// sweepBlocks drops blocks no candidate references anymore.
func (t *Tracker) sweepBlocks() {
	used := make(map[string]bool, len(t.blocks))
	for _, keys := range t.candKeys {
		for _, k := range keys {
			used[k] = true
		}
	}
	//lint:commutative per-key conditional delete; each key is decided independently
	for k := range t.blocks {
		if !used[k] {
			delete(t.blocks, k)
		}
	}
}
