package cover

// Incremental ("delta") evidence maintenance for streaming targets.
//
// The Eq. (9) evidence of a candidate depends on (I, θ) through its
// chase — which never changes when the target J grows — and on J
// through two monotone-ish quantities: the per-block homomorphism
// contributions (new J tuples can only add candidate images) and the
// creates errors (a chase tuple that gains an image stops being an
// error). A Tracker retains exactly the state needed to exploit that:
// the chase blocks deduped by canonical key with their current cover
// contribution, and the chase tuples currently lacking an image. An
// Append then
//
//  1. finds the blocks "dirty" against the delta — those with a block
//     tuple whose constant pattern matches some appended tuple; every
//     other block keeps an identical candidate set, hence an identical
//     enumeration, and is never rescanned;
//  2. re-enumerates only the dirty blocks against the extended index
//     (which is exactly the enumeration a cold analysis would run);
//  3. rebuilds the Pairs of candidates owning a changed block by
//     max-merging the cached per-block contributions — no
//     homomorphism search for their clean blocks; and
//  4. probes each candidate's current error tuples against the delta
//     only, clearing the ones that gained an image.
//
// The result is value-identical to a cold AnalyzeN over the extended
// target: appended tuples take the next index ids (arrival order), so
// the evidence equals the cold analysis of a J listing its tuples in
// that same order — covers/creates values per concrete tuple are
// identical either way. (The one caveat is a HomLimit low enough to
// truncate a block's enumeration: a truncated max depends on the
// enumeration order, which depends on tuple arrival order, exactly as
// it does for two cold analyses of differently-ordered instances.)

import (
	"slices"
	"sort"
	"sync"

	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

// trackedBlock is one distinct chase block (up to null renaming) with
// its current cover contribution against the tracked target.
type trackedBlock struct {
	// tuples is a representative block (coverage is invariant under the
	// null renaming that canonical keys quotient out).
	tuples []data.Tuple
	// pairs is the block's current contribution: max coverage degree
	// per J tuple over its partial homomorphisms, sparse and sorted.
	pairs []CoverPair
	// pats/reps cache the block's distinct tuple patterns with one
	// representative tuple each (dirtiness is pattern-determined).
	// Retained block tuples never change, so the cache is built on the
	// first Append and reused by every later one — rebuilding these
	// strings per append dominated the dirty-detection cost.
	pats []string
	reps []data.Tuple
}

// Tracker is the retained streaming state of one analysed candidate
// set: everything needed to apply target appends to a []Analysis
// without re-running the chase or rescanning clean evidence. Build it
// with BuildTracker; it is not safe for concurrent use (core.Problem
// serialises appends).
type Tracker struct {
	jidx *JIndex
	opts Options
	// blocks holds every distinct chase block by canonical key.
	blocks map[string]*trackedBlock
	// candKeys lists each candidate's block keys, in block order.
	candKeys [][]string
	// errTuples lists each candidate's chase tuples currently lacking
	// a homomorphic image in J (its creates errors); errPats caches
	// their canonical patterns (computed lazily on the first Append and
	// kept aligned as error tuples clear).
	errTuples [][]data.Tuple
	errPats   [][]string
	// okTuples lists each candidate's chase tuples that currently DO
	// embed into J — the complement of errTuples. Removals consult it:
	// a tuple whose image vanishes migrates back to errTuples. okPats
	// caches canonical patterns lazily, like errPats.
	okTuples [][]data.Tuple
	okPats   [][]string
}

// TrackerDelta reports what one Append changed, so downstream
// incremental state (incidence rows, solver evaluators) can update in
// O(changed) instead of rescanning.
type TrackerDelta struct {
	// OldTuples and NewTuples are the target sizes around the append;
	// ids OldTuples..NewTuples-1 are the appended tuples.
	OldTuples, NewTuples int
	// ChangedTuples lists pre-existing J tuple ids whose coverage by
	// some candidate changed (sorted ascending). Appended ids are not
	// listed — the id range above already identifies them.
	ChangedTuples []int32
	// PairsChanged lists candidates whose Pairs slice changed.
	PairsChanged []int32
	// ErrorsChanged lists candidates whose Errors count changed
	// (dropped on appends; it can also grow on removals and move either
	// way on source deltas).
	ErrorsChanged []int32
	// RemovedTuples lists J tuple ids tombstoned by a Remove, sorted
	// ascending. Their slots stay allocated but dead: coverage rows are
	// empty and IndexOf misses. Appends and source deltas never set it.
	RemovedTuples []int32
	// Seq is the problem mutation sequence number as of this delta.
	// core.Problem stamps it; Evaluator.ExtendTarget enforces in-order
	// application against it.
	Seq uint64
}

// trackSink collects the streaming state analyzeOne records when
// asked to: per-candidate block keys plus error and embedded chase
// tuples.
type trackSink struct {
	keys [][]string
	errs [][]data.Tuple
	oks  [][]data.Tuple
}

// newTrackSink sizes a sink for n candidates.
func newTrackSink(n int) *trackSink {
	return &trackSink{
		keys: make([][]string, n),
		errs: make([][]data.Tuple, n),
		oks:  make([][]data.Tuple, n),
	}
}

// BuildTracker runs the full evidence analysis (the exact analyzeOne
// body AnalyzeN runs, on the same worker pool) while retaining the
// streaming state, returning both. Use it instead of AnalyzeN when
// the target will grow; the analyses are value-identical to
// AnalyzeN's.
func BuildTracker(I *data.Instance, jidx *JIndex, candidates tgd.Mapping, opts Options, workers int) (*Tracker, []Analysis) {
	analyses := make([]Analysis, len(candidates))
	sink := newTrackSink(len(candidates))
	var memo sync.Map // canonical key → *trackedBlock
	runWorkers(jidx, len(candidates), workers, func(w *analyzeWorker, i int) {
		analyses[i] = w.analyzeOne(i, candidates[i], I, &memo, opts, sink)
	})
	t := &Tracker{
		jidx:      jidx,
		opts:      opts,
		blocks:    make(map[string]*trackedBlock),
		candKeys:  sink.keys,
		errTuples: sink.errs,
		okTuples:  sink.oks,
	}
	memo.Range(func(k, v any) bool {
		t.blocks[k.(string)] = v.(*trackedBlock)
		return true
	})
	return t, analyses
}

// Clone returns an independent copy of the tracker over jidx (the
// forked problem's clone of the tracked index), so a fork keeps the
// retained state instead of re-running the chase. The copy is
// copy-on-write: block tuples, block pair rows, block pattern caches
// and candidate key lists are never written in place and are shared;
// every trackedBlock (whose pairs and pattern cache are reassigned),
// the per-candidate outer slices, and the inner error, embedded and
// pattern lists (filtered in place with s[:0]) are copied.
//
// Clone first fills the receiver's lazy block-pattern and
// error-pattern caches, so every clone inherits them instead of
// building its own on its first Append. That writes to the receiver:
// like every Tracker method, Clone must not overlap other uses of it.
func (t *Tracker) Clone(jidx *JIndex) *Tracker {
	t.fillPatternCaches()
	arena := make([]trackedBlock, 0, len(t.blocks))
	blocks := make(map[string]*trackedBlock, len(t.blocks))
	//lint:commutative per-key copy into a fresh map; each key is stored once
	for k, tb := range t.blocks {
		arena = append(arena, *tb)
		blocks[k] = &arena[len(arena)-1]
	}
	return &Tracker{
		jidx:      jidx,
		opts:      t.opts,
		blocks:    blocks,
		candKeys:  slices.Clone(t.candKeys),
		errTuples: cloneInner(t.errTuples),
		errPats:   cloneInner(t.errPats),
		okTuples:  cloneInner(t.okTuples),
		okPats:    cloneInner(t.okPats),
	}
}

// fillPatternCaches computes every block and error pattern the lazy
// caches still lack: exactly the values Append would compute.
func (t *Tracker) fillPatternCaches() {
	//lint:commutative per-block cache fill; each block is filled independently
	for _, tb := range t.blocks {
		if tb.reps == nil {
			tb.pats, tb.reps = distinctPatterns(tb.tuples)
		}
	}
	if t.errPats == nil {
		t.errPats = make([][]string, len(t.errTuples))
	}
	for i, errs := range t.errTuples {
		if t.errPats[i] == nil && len(errs) > 0 {
			t.errPats[i] = canonPatterns(errs)
		}
	}
}

// cloneInner copies every inner slice of s into one shared backing
// array, capacity-limiting each, so in-place filtering stays within a
// slice's own range and an append reallocates. Nil inner slices stay
// nil (the lazy caches use nil as "not computed").
func cloneInner[T any](s [][]T) [][]T {
	if s == nil {
		return nil
	}
	n := 0
	for _, in := range s {
		n += len(in)
	}
	buf := make([]T, 0, n)
	out := make([][]T, len(s))
	for i, in := range s {
		if in == nil {
			continue
		}
		lo := len(buf)
		buf = append(buf, in...)
		out[i] = buf[lo:len(buf):len(buf)]
	}
	return out
}

// Append applies a target delta: it extends the tracker's JIndex with
// the new tuples (which must already be deduped against the indexed
// target), updates the analyses in place, and reports what changed.
// analyses must be the slice BuildTracker returned (same order).
// Dirty-block re-enumeration runs on a pool of `workers` goroutines
// (≤ 0 means GOMAXPROCS); everything else is cheap bookkeeping.
func (t *Tracker) Append(delta []data.Tuple, analyses []Analysis, workers int) *TrackerDelta {
	oldLen := t.jidx.Len()
	out := &TrackerDelta{OldTuples: oldLen, NewTuples: oldLen + len(delta)}
	if len(delta) == 0 {
		return out
	}
	t.jidx.Append(delta)

	// 1. Dirty detection: a block must be re-enumerated iff one of its
	// tuples can map onto an appended tuple (constant positions agree).
	// Memoised per null-insensitive pattern — the candidate sets the
	// index would return are pattern-determined — with the delta
	// grouped by relation so each probe scans only same-relation
	// appends (MatchConstPositions fails across relations anyway).
	deltaByRel := make(map[string][]data.Tuple)
	for _, dt := range delta {
		deltaByRel[dt.Rel] = append(deltaByRel[dt.Rel], dt)
	}
	patDirty := make(map[string]bool)
	tupleDirty := func(pat string, bt data.Tuple) bool {
		if v, ok := patDirty[pat]; ok {
			return v
		}
		dirty := false
		for _, dt := range deltaByRel[bt.Rel] {
			if data.MatchConstPositions(bt, dt) {
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
	sort.Strings(dirtyKeys) // stable work order (results are order-independent)

	// 2. Re-enumerate dirty blocks against the extended index. Each
	// worker owns a fresh searcher (the pre-append memos are stale).
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

	// 3. Rebuild the Pairs of candidates owning a changed block by
	// max-merging their blocks' cached contributions (memory pass, no
	// search), and record which pre-existing tuples changed coverage.
	touched := make(map[int32]bool)
	t.remergeAffected(changedKeys, analyses, int32(oldLen), touched, out)
	out.ChangedTuples = make([]int32, 0, len(touched))
	for j := range touched {
		out.ChangedTuples = append(out.ChangedTuples, j)
	}
	sort.Slice(out.ChangedTuples, func(a, b int) bool { return out.ChangedTuples[a] < out.ChangedTuples[b] })

	// 4. Errors: a chase tuple still erroring stops iff it maps onto an
	// appended tuple; probe the delta (same-relation entries only),
	// memoised per canonical pattern (the verdict is null-renaming
	// invariant). The patterns are cached across appends — an error
	// tuple keeps its pattern for as long as it stays an error.
	embDelta := make(map[string]bool)
	mapsToDelta := func(pat string, ct data.Tuple) bool {
		if v, ok := embDelta[pat]; ok {
			return v
		}
		ok := false
		for _, dt := range deltaByRel[ct.Rel] {
			if data.TupleMapsTo(ct, dt) {
				ok = true
				break
			}
		}
		embDelta[pat] = ok
		return ok
	}
	if t.errPats == nil {
		t.errPats = make([][]string, len(t.errTuples))
	}
	for i, errs := range t.errTuples {
		pats := t.errPats[i]
		if pats == nil && len(errs) > 0 {
			pats = canonPatterns(errs)
			t.errPats[i] = pats
		}
		kept := errs[:0]
		keptPats := pats[:0]
		for k, ct := range errs {
			if !mapsToDelta(pats[k], ct) {
				kept = append(kept, ct)
				keptPats = append(keptPats, pats[k])
				continue
			}
			// The tuple gained an image: it stops being an error and
			// joins the embedded set (removals may send it back).
			t.okTuples[i] = append(t.okTuples[i], ct)
			if t.okPats != nil && t.okPats[i] != nil {
				t.okPats[i] = append(t.okPats[i], pats[k])
			}
		}
		if len(kept) != len(errs) {
			t.errTuples[i] = kept
			t.errPats[i] = keptPats
			analyses[i].Errors = float64(len(kept))
			out.ErrorsChanged = append(out.ErrorsChanged, int32(i))
		}
	}
	return out
}

// distinctPatterns returns the distinct null-insensitive patterns of
// a block's tuples with one representative tuple per pattern.
func distinctPatterns(tuples []data.Tuple) (pats []string, reps []data.Tuple) {
	pats = make([]string, 0, len(tuples))
	reps = make([]data.Tuple, 0, len(tuples))
	seen := make(map[string]struct{}, len(tuples))
	for _, bt := range tuples {
		pat := bt.Pattern()
		if _, ok := seen[pat]; ok {
			continue
		}
		seen[pat] = struct{}{}
		pats = append(pats, pat)
		reps = append(reps, bt)
	}
	return pats, reps
}

// canonPatterns returns the canonical pattern of every tuple.
func canonPatterns(ts []data.Tuple) []string {
	pats := make([]string, len(ts))
	for k, ct := range ts {
		pats[k] = ct.CanonPattern()
	}
	return pats
}

// pairsEqual reports exact equality of two sparse cover rows.
func pairsEqual(a, b []CoverPair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffPairs records into touched the J ids below limit whose coverage
// differs between the sorted sparse rows prev and cur.
func diffPairs(prev, cur []CoverPair, limit int32, touched map[int32]bool) {
	i, j := 0, 0
	for i < len(prev) || j < len(cur) {
		switch {
		case j >= len(cur) || (i < len(prev) && prev[i].J < cur[j].J):
			if prev[i].J < limit {
				touched[prev[i].J] = true
			}
			i++
		case i >= len(prev) || cur[j].J < prev[i].J:
			if cur[j].J < limit {
				touched[cur[j].J] = true
			}
			j++
		default: // same id
			if prev[i].Cov != cur[j].Cov && prev[i].J < limit {
				touched[prev[i].J] = true
			}
			i++
			j++
		}
	}
}
