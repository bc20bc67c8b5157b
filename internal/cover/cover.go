// Package cover computes the per-candidate evidence measures of the
// paper's Eq. (9) objective: covers(θ, t) — the degree to which
// candidate θ explains target tuple t ∈ J — and creates(θ, t′) — the
// error indicator for tuples t′ ∈ K_θ that have no homomorphic image
// in J.
//
// The semantics are pinned by the appendix's worked example:
//
//   - A homomorphism must preserve constants, so a candidate tuple t′
//     can only explain a J tuple agreeing on all constant positions.
//   - A labelled-null position of t′ counts as covered only when the
//     null is *corroborated*: it also occurs in another tuple of the
//     same chase block whose image under the same (partial)
//     homomorphism lies in J. An uncorroborated null carries no
//     information about the concrete value in J.
//   - covers(θ,t) is the maximum coverage fraction over blocks of
//     K_θ, partial homomorphisms, and block tuples mapping onto t.
//   - creates(θ,t′) is 1 iff t′ has no homomorphic image in J.
//
// With these definitions the appendix's numbers are reproduced
// exactly (see the golden tests), and on full tgds they collapse to
// the binary Eq. (4) measures.
//
// Analysis is the hot input of every solver, so the evidence is kept
// sparse and index-friendly: covers values live in a sorted
// (CSR-style) pair slice rather than a map, homomorphism search runs
// against a posting-list index of J (data.Index), identical chase
// blocks are analysed once and shared across candidates, and the
// inverted tuple→candidate incidence (Incidence) lets solvers rescan
// only the candidates touching a tuple. AnalyzeReference in
// reference.go preserves the original scan-based map pipeline; the
// differential tests pin the two against each other bit for bit.
package cover

import (
	"maps"
	"runtime"
	"sort"
	"sync"

	"schemamap/internal/chase"
	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

// Options tune the analysis.
type Options struct {
	// Corroboration enables the null-corroboration rule (the paper's
	// collective signal). Disabling it is the E8 ablation: any mapped
	// null position counts as covered.
	Corroboration bool
	// HomLimit caps the number of partial homomorphisms enumerated
	// per block (0 means the package default).
	HomLimit int
}

// DefaultOptions returns the paper-faithful settings.
func DefaultOptions() Options {
	return Options{Corroboration: true}
}

// JIndex assigns stable indices to the tuples of the data example J
// and carries the posting-list index the analysis probes. A tuple's
// JIndex position equals its data.Index id.
type JIndex struct {
	Tuples []data.Tuple
	byKey  map[string]int
	idx    *data.Index
}

// IndexJ builds a JIndex over the instance.
func IndexJ(J *data.Instance) *JIndex {
	ix := &JIndex{idx: data.NewIndex(J)}
	ix.Tuples = ix.idx.Tuples()
	ix.byKey = make(map[string]int, len(ix.Tuples))
	for i, t := range ix.Tuples {
		ix.byKey[t.Key()] = i
	}
	return ix
}

// Append indexes new target tuples, assigning them the next ids (the
// posting lists of the underlying data.Index are extended in place).
// The caller must not append tuples already indexed; core.Problem
// dedups against its J instance first.
func (ix *JIndex) Append(tuples []data.Tuple) {
	base := len(ix.Tuples)
	ix.idx.Append(tuples)
	ix.Tuples = ix.idx.Tuples()
	for i := base; i < len(ix.Tuples); i++ {
		ix.byKey[ix.Tuples[i].Key()] = i
	}
}

// Clone returns an independent copy of the index for a forked
// problem: appends and removals on either side never show in the
// other (see data.Index.Clone for the sharing rules).
func (ix *JIndex) Clone() *JIndex {
	c := &JIndex{idx: ix.idx.Clone(), byKey: maps.Clone(ix.byKey)}
	c.Tuples = c.idx.Tuples()
	return c
}

// Remove tombstones target tuples by id: IndexOf stops resolving them
// (re-appending an equal tuple later assigns a fresh id), the
// underlying data.Index filters them out of candidate probes, and the
// slot itself stays allocated, so live ids are stable and Len is
// unchanged. The ids must be live; core.Problem resolves and dedups
// them first.
func (ix *JIndex) Remove(ids []int32) {
	ix.idx.Remove(ids)
	for _, id := range ids {
		delete(ix.byKey, ix.Tuples[id].Key())
	}
}

// IndexOf returns the index of the tuple, or -1.
func (ix *JIndex) IndexOf(t data.Tuple) int {
	if i, ok := ix.byKey[t.Key()]; ok {
		return i
	}
	return -1
}

// Len returns the number of indexed slots, tombstoned ones included
// (dense per-slot state is sized by it).
func (ix *JIndex) Len() int { return len(ix.Tuples) }

// Live reports whether slot j holds a live (non-removed) tuple.
func (ix *JIndex) Live(j int) bool { return ix.idx.Live(int32(j)) }

// NumLive returns the number of live target tuples.
func (ix *JIndex) NumLive() int { return ix.idx.NumLive() }

// NumDead returns the number of tombstoned slots.
func (ix *JIndex) NumDead() int { return ix.idx.NumDead() }

// Index returns the posting-list index over J.
func (ix *JIndex) Index() *data.Index { return ix.idx }

// CoverPair is one sparse covers entry: covers(θ, Tuples[J]) = Cov.
type CoverPair struct {
	J   int32
	Cov float64
}

// Analysis holds the Eq. (9) evidence for one candidate tgd.
type Analysis struct {
	// TGDIndex is the candidate's index in the analysed mapping.
	TGDIndex int
	// Size is the tgd's size measure (atoms + existential variables).
	Size int
	// Pairs holds the non-zero covers(θ, t) values, sorted by J tuple
	// index ascending; absent indices have coverage 0.
	Pairs []CoverPair
	// Errors is Σ_{t′ ∈ K_θ} creates(θ, t′): the number of distinct
	// chase tuples with no homomorphic image in J.
	Errors float64
	// KTuples is |K_θ| (distinct tuples).
	KTuples int
	// Firings is the number of chase blocks.
	Firings int
}

// CoversOf returns covers(θ, t) for J tuple index j.
func (a *Analysis) CoversOf(j int) float64 {
	k := sort.Search(len(a.Pairs), func(i int) bool { return int(a.Pairs[i].J) >= j })
	if k < len(a.Pairs) && int(a.Pairs[k].J) == j {
		return a.Pairs[k].Cov
	}
	return 0
}

// NumCovered returns the number of J tuples covered to a positive
// degree.
func (a *Analysis) NumCovered() int { return len(a.Pairs) }

// TotalCoverage returns Σ_t covers(θ, t), a rough utility measure.
func (a *Analysis) TotalCoverage() float64 {
	s := 0.0
	for _, pr := range a.Pairs {
		s += pr.Cov
	}
	return s
}

// PairsFromMap converts a j→covers map to the sorted sparse form;
// zero entries are dropped. Used by the reference path and tests.
func PairsFromMap(m map[int]float64) []CoverPair {
	pairs := make([]CoverPair, 0, len(m))
	//lint:commutative collect-then-sort: pairs are sorted by J below before use
	for j, c := range m {
		if c > 0 {
			pairs = append(pairs, CoverPair{J: int32(j), Cov: c})
		}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].J < pairs[b].J })
	return pairs
}

// Analyze computes the Analysis of every candidate against the data
// example (I, J). jidx must index J. Candidates are analysed in
// parallel (they are independent); the result order matches the
// candidate order, so output is deterministic.
func Analyze(I *data.Instance, jidx *JIndex, candidates tgd.Mapping, opts Options) []Analysis {
	return AnalyzeN(I, jidx, candidates, opts, 0)
}

// AnalyzeN is Analyze with an explicit bound on the worker pool:
// 1 forces serial analysis, 0 or negative means GOMAXPROCS.
func AnalyzeN(I *data.Instance, jidx *JIndex, candidates tgd.Mapping, opts Options, workers int) []Analysis {
	out := make([]Analysis, len(candidates))
	// blockMemo shares per-block cover contributions across candidates
	// (and workers): identical chase blocks — projections and copies
	// are rife in generated candidate sets — are analysed once.
	var blockMemo sync.Map
	runWorkers(jidx, len(candidates), workers, func(w *analyzeWorker, i int) {
		out[i] = w.analyzeOne(i, candidates[i], I, &blockMemo, opts, nil)
	})
	return out
}

// AnalyzeOne computes the Analysis of a single candidate.
func AnalyzeOne(index int, d *tgd.TGD, I, J *data.Instance, opts Options) Analysis {
	jidx := IndexJ(J)
	return newAnalyzeWorker(jidx).analyzeOne(index, d, I, new(sync.Map), opts, nil)
}

// runWorkers executes fn(w, i) for every i in [0, n) on a pool of
// `workers` goroutines (≤ 0 means GOMAXPROCS, capped at n), each
// owning a fresh analyzeWorker over jidx; a single worker runs
// inline. Every analysis fan-out in this package — cold, tracked, and
// the delta rescans — goes through here.
func runWorkers(jidx *JIndex, n, workers int, fn func(w *analyzeWorker, i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		w := newAnalyzeWorker(jidx)
		for i := 0; i < n; i++ {
			fn(w, i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newAnalyzeWorker(jidx)
			for i := range next {
				fn(w, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// analyzeWorker bundles one worker's searcher and dense accumulation
// scratch (two max-coverage accumulators with touched lists, so the
// per-candidate and per-block passes never clear a full |J| array).
type analyzeWorker struct {
	searcher *data.Searcher
	acc      []float64
	accTouch []int32
	blk      []float64
	blkTouch []int32
}

func newAnalyzeWorker(jidx *JIndex) *analyzeWorker {
	return &analyzeWorker{
		searcher: data.NewSearcher(jidx.Index()),
		acc:      make([]float64, jidx.Len()),
		blk:      make([]float64, jidx.Len()),
	}
}

// analyzeOne computes one candidate's Analysis. A non-nil sink
// additionally records the candidate's block keys and error tuples —
// the retained streaming state of BuildTracker (delta.go); the
// analysis itself is identical either way.
func (w *analyzeWorker) analyzeOne(index int, d *tgd.TGD, I *data.Instance, blockMemo *sync.Map, opts Options, sink *trackSink) Analysis {
	res := chase.ChaseOne(I, d, nil)
	an := Analysis{
		TGDIndex: index,
		Size:     d.Size(),
		KTuples:  res.Instance.Len(),
		Firings:  len(res.Blocks),
	}
	var keys []string
	if sink != nil {
		keys = make([]string, 0, len(res.Blocks))
	}
	for bi := range res.Blocks {
		key, tb := w.blockContrib(res.Blocks[bi].Tuples, blockMemo, opts)
		if sink != nil {
			keys = append(keys, key)
		}
		for _, pr := range tb.pairs {
			if pr.Cov > w.acc[pr.J] {
				if w.acc[pr.J] == 0 {
					w.accTouch = append(w.accTouch, pr.J)
				}
				w.acc[pr.J] = pr.Cov
			}
		}
	}
	an.Pairs = w.drain(&w.acc, &w.accTouch)
	for _, t := range res.Instance.All() {
		if !w.searcher.TupleEmbeds(t) {
			an.Errors++
			if sink != nil {
				sink.errs[index] = append(sink.errs[index], t)
			}
		} else if sink != nil {
			// Embedded chase tuples are retained too: target removals can
			// take their image away, turning them back into errors, and
			// the per-candidate multiplicity cannot be reconstructed from
			// the canonically-deduped blocks.
			sink.oks[index] = append(sink.oks[index], t)
		}
	}
	if sink != nil {
		sink.keys[index] = keys
	}
	return an
}

// blockContrib returns the per-block evidence — the maximum coverage
// degree each J tuple receives from any partial homomorphism of the
// block — memoised by the block's canonical form: equal blocks up to
// null renaming contribute identically, whichever candidate fired
// them. The memoised trackedBlock retains a representative block
// alongside the pairs, which is what the streaming Tracker keeps.
func (w *analyzeWorker) blockContrib(block []data.Tuple, blockMemo *sync.Map, opts Options) (string, *trackedBlock) {
	key := data.BlockCanonKey(block)
	if v, ok := blockMemo.Load(key); ok {
		return key, v.(*trackedBlock)
	}
	pairs := w.enumerateBlockPairs(block, opts)
	actual, _ := blockMemo.LoadOrStore(key, &trackedBlock{tuples: block, pairs: pairs})
	return key, actual.(*trackedBlock)
}

// enumerateBlockPairs runs the partial-homomorphism enumeration of one
// block against the searcher's index and returns the block's cover
// contribution (max degree per J tuple, sparse and sorted).
func (w *analyzeWorker) enumerateBlockPairs(block []data.Tuple, opts Options) []CoverPair {
	w.searcher.EnumeratePartialHoms(block, opts.HomLimit, func(m *data.IndexedMatch) bool {
		for i, mapped := range m.Mapped {
			if !mapped {
				continue
			}
			deg := coverageDegree(block, i, m.Mapped, opts)
			if deg <= 0 {
				continue
			}
			if j := m.Image[i]; deg > w.blk[j] {
				if w.blk[j] == 0 {
					w.blkTouch = append(w.blkTouch, j)
				}
				w.blk[j] = deg
			}
		}
		return true
	})
	return w.drain(&w.blk, &w.blkTouch)
}

// drain converts a dense accumulator plus touched list into sorted
// sparse pairs and resets the accumulator.
func (w *analyzeWorker) drain(acc *[]float64, touch *[]int32) []CoverPair {
	t := *touch
	sort.Slice(t, func(a, b int) bool { return t[a] < t[b] })
	pairs := make([]CoverPair, len(t))
	for k, j := range t {
		pairs[k] = CoverPair{J: j, Cov: (*acc)[j]}
		(*acc)[j] = 0
	}
	*touch = t[:0]
	return pairs
}

// coverageDegree computes the fraction of positions of block tuple ti
// that are covered under the match whose mapped set is mapped:
// constant positions always count; null positions count iff
// corroborated (or always, when the corroboration ablation is off).
func coverageDegree(block []data.Tuple, ti int, mapped []bool, opts Options) float64 {
	t := block[ti]
	if len(t.Args) == 0 {
		return 0
	}
	covered := 0
	for _, a := range t.Args {
		if !a.IsNull() {
			covered++
			continue
		}
		if !opts.Corroboration {
			covered++
			continue
		}
		if nullCorroborated(block, ti, mapped, a.Name()) {
			covered++
		}
	}
	return float64(covered) / float64(len(t.Args))
}

// nullCorroborated reports whether the null labelled lbl occurs in
// another *mapped* tuple of the block.
func nullCorroborated(block []data.Tuple, ti int, mapped []bool, lbl string) bool {
	for j, other := range block {
		if j == ti || !mapped[j] {
			continue
		}
		for _, oa := range other.Args {
			if oa.IsNull() && oa.Name() == lbl {
				return true
			}
		}
	}
	return false
}

// CertainUnexplained returns the indices of live J tuples not covered
// (to any positive degree) by any candidate; tombstoned slots are
// skipped. Their Eq. (9) contribution is
// the constant |certain|·w₁ regardless of the selection, so solvers
// may exclude them from the variable part of the objective
// (cf. Section III-C of the paper).
func CertainUnexplained(jidx *JIndex, analyses []Analysis) []int {
	coveredBySome := make([]bool, jidx.Len())
	for i := range analyses {
		for _, pr := range analyses[i].Pairs {
			coveredBySome[pr.J] = true
		}
	}
	var out []int
	for j, c := range coveredBySome {
		if !c && jidx.Live(j) {
			out = append(out, j)
		}
	}
	return out
}

// Incidence is the inverted evidence: for every J tuple, the
// candidates covering it with their degrees, in candidate order
// (CSR layout). Solvers use it to rescan only the candidates incident
// to a tuple when the selection changes.
type Incidence struct {
	starts []int32
	cand   []int32
	cov    []float64
}

// BuildIncidence inverts the analyses over nj tuples.
func BuildIncidence(nj int, analyses []Analysis) *Incidence {
	starts := make([]int32, nj+1)
	total := 0
	for i := range analyses {
		for _, pr := range analyses[i].Pairs {
			starts[pr.J+1]++
			total++
		}
	}
	for j := 0; j < nj; j++ {
		starts[j+1] += starts[j]
	}
	inc := &Incidence{
		starts: starts,
		cand:   make([]int32, total),
		cov:    make([]float64, total),
	}
	fill := make([]int32, nj)
	for i := range analyses {
		for _, pr := range analyses[i].Pairs {
			k := starts[pr.J] + fill[pr.J]
			inc.cand[k] = int32(i)
			inc.cov[k] = pr.Cov
			fill[pr.J]++
		}
	}
	return inc
}

// Grow extends the incidence to span nj tuples, giving the appended
// tuples empty rows in O(new tuples). It is the fast path for target
// appends that changed no candidate's coverage (cover.TrackerDelta
// with an empty PairsChanged); appends that did change rows need a
// BuildIncidence rebuild — a memory pass dwarfed by the dirty-block
// re-enumeration that caused it.
func (inc *Incidence) Grow(nj int) {
	last := inc.starts[len(inc.starts)-1]
	for len(inc.starts) < nj+1 {
		inc.starts = append(inc.starts, last)
	}
}

// Clone returns an independent copy for a forked problem. The
// candidate and degree arrays are never written after BuildIncidence
// and are shared; the row offsets are capacity-limited, so a Grow on
// either side reallocates.
func (inc *Incidence) Clone() *Incidence {
	n := len(inc.starts)
	return &Incidence{starts: inc.starts[:n:n], cand: inc.cand, cov: inc.cov}
}

// Row returns the candidates covering J tuple j and their degrees,
// sorted by candidate index ascending (shared slices; do not mutate).
func (inc *Incidence) Row(j int) ([]int32, []float64) {
	lo, hi := inc.starts[j], inc.starts[j+1]
	return inc.cand[lo:hi], inc.cov[lo:hi]
}

// NumTuples returns the number of J tuples the incidence spans.
func (inc *Incidence) NumTuples() int { return len(inc.starts) - 1 }
