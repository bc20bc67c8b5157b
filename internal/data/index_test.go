package data

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randomInstance builds an instance with a few relations, shared
// values, and (optionally) null-valued tuples.
func randomInstance(rng *rand.Rand, tuples int, withNulls bool) *Instance {
	in := NewInstance()
	rels := []string{"r", "s", "u"}
	vals := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < tuples; i++ {
		rel := rels[rng.Intn(len(rels))]
		arity := 1 + rng.Intn(3)
		args := make([]Value, arity)
		for p := range args {
			if withNulls && rng.Intn(6) == 0 {
				args[p] = NullValue(fmt.Sprintf("M%d", rng.Intn(4)))
			} else {
				args[p] = Const(vals[rng.Intn(len(vals))])
			}
		}
		in.Add(Tuple{Rel: rel, Args: args})
	}
	return in
}

// randomBlock builds a block of tuples mixing constants and shared
// nulls, the shape the chase produces.
func randomBlock(rng *rand.Rand) []Tuple {
	rels := []string{"r", "s", "u"}
	vals := []string{"a", "b", "c", "d", "e"}
	n := 1 + rng.Intn(3)
	block := make([]Tuple, n)
	for i := range block {
		arity := 1 + rng.Intn(3)
		args := make([]Value, arity)
		for p := range args {
			if rng.Intn(3) == 0 {
				args[p] = NullValue(fmt.Sprintf("N%d", rng.Intn(3)))
			} else {
				args[p] = Const(vals[rng.Intn(len(vals))])
			}
		}
		block[i] = Tuple{Rel: rels[rng.Intn(len(rels))], Args: args}
	}
	return block
}

// collect runs the reference enumeration and returns the emitted
// (Mapped, Image-key) sequences.
type flatMatch struct {
	Mapped []bool
	Images []string
}

func collectReference(block []Tuple, target *Instance, limit int) []flatMatch {
	var out []flatMatch
	EnumeratePartialHoms(block, target, limit, func(m BlockMatch) bool {
		fm := flatMatch{Mapped: append([]bool(nil), m.Mapped...)}
		for i, ok := range m.Mapped {
			if ok {
				fm.Images = append(fm.Images, m.Image[i].Key())
			} else {
				fm.Images = append(fm.Images, "")
			}
		}
		out = append(out, fm)
		return true
	})
	return out
}

func collectIndexed(block []Tuple, s *Searcher, limit int) []flatMatch {
	var out []flatMatch
	s.EnumeratePartialHoms(block, limit, func(m *IndexedMatch) bool {
		fm := flatMatch{Mapped: append([]bool(nil), m.Mapped...)}
		for i, ok := range m.Mapped {
			if ok {
				fm.Images = append(fm.Images, s.Index().Tuple(m.Image[i]).Key())
			} else {
				fm.Images = append(fm.Images, "")
			}
		}
		out = append(out, fm)
		return true
	})
	return out
}

// The indexed searcher must emit exactly the reference sequence —
// same matches, same order — including under tight hom limits, so
// capped analyses stay bit-identical across the two paths.
func TestIndexedSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 200; trial++ {
		target := randomInstance(rng, 4+rng.Intn(30), trial%3 == 0)
		block := randomBlock(rng)
		s := NewSearcher(NewIndex(target))
		for _, limit := range []int{0, 1, 7} {
			want := collectReference(block, target, limit)
			got := collectIndexed(block, s, limit)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d limit %d:\nblock %v\ntarget:\n%v\ngot  %v\nwant %v",
					trial, limit, block, target, got, want)
			}
		}
	}
}

// Searcher.TupleEmbeds must agree with the reference TupleEmbeds,
// memoisation included (repeat queries exercise the cache).
func TestIndexedTupleEmbedsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		target := randomInstance(rng, 3+rng.Intn(25), false)
		s := NewSearcher(NewIndex(target))
		for q := 0; q < 20; q++ {
			block := randomBlock(rng)
			tu := block[0]
			want := TupleEmbeds(tu, target)
			if got := s.TupleEmbeds(tu); got != want {
				t.Fatalf("trial %d: TupleEmbeds(%v) = %v, reference %v", trial, tu, got, want)
			}
			if got := s.TupleEmbeds(tu); got != want { // memo hit
				t.Fatalf("trial %d: memoised TupleEmbeds(%v) flipped to %v", trial, tu, got)
			}
		}
	}
}

func TestIndexCandidates(t *testing.T) {
	in := NewInstance()
	in.Add(NewTuple("r", "a", "b"))
	in.Add(NewTuple("r", "a", "c"))
	in.Add(NewTuple("r", "d", "b"))
	in.Add(NewTuple("s", "a", "b"))
	ix := NewIndex(in)

	probe := func(t Tuple) []string {
		var out []string
		for _, id := range ix.Candidates(t) {
			out = append(out, ix.Tuple(id).Key())
		}
		return out
	}

	got := probe(Tuple{Rel: "r", Args: []Value{Const("a"), NullValue("N")}})
	if len(got) != 2 || got[0] != NewTuple("r", "a", "b").Key() || got[1] != NewTuple("r", "a", "c").Key() {
		t.Errorf("r(a,N) candidates = %v", got)
	}
	if got := probe(Tuple{Rel: "r", Args: []Value{NullValue("N"), NullValue("M")}}); len(got) != 3 {
		t.Errorf("r(N,M) candidates = %v, want all 3 r tuples", got)
	}
	if got := probe(NewTuple("r", "a", "b")); len(got) != 1 {
		t.Errorf("ground probe = %v, want exact match only", got)
	}
	if got := probe(NewTuple("r", "z", "b")); len(got) != 0 {
		t.Errorf("missing-constant probe = %v, want none", got)
	}
	// Arity mismatches never match.
	if got := probe(Tuple{Rel: "r", Args: []Value{NullValue("N")}}); len(got) != 0 {
		t.Errorf("arity-1 probe against arity-2 relation = %v, want none", got)
	}
}

// Index.Clone shares posting lists capacity-limited and copies the
// tombstones: appends and removals on either side never show in the
// other's probes.
func TestIndexCloneIsolation(t *testing.T) {
	in := NewInstance()
	in.Add(NewTuple("r", "a", "b"))
	in.Add(NewTuple("r", "a", "c"))
	ix := NewIndex(in)
	// Leave spare capacity in the lists and a tombstone behind.
	ix.Append([]Tuple{NewTuple("r", "a", "d"), NewTuple("r", "q", "q"), NewTuple("r", "q", "w")})
	ix.Remove([]int32{3})
	c := ix.Clone()
	c.Remove([]int32{0})
	// Probe a posting list, and the relation list an all-null tuple
	// scans.
	probe := func(ix *Index) string {
		var out []string
		for _, id := range ix.Candidates(Tuple{Rel: "r", Args: []Value{Const("a"), NullValue("N")}}) {
			out = append(out, ix.Tuple(id).String())
		}
		all := ix.Candidates(Tuple{Rel: "r", Args: []Value{NullValue("N"), NullValue("M")}})
		return fmt.Sprintf("%s | %d", strings.Join(out, " "), len(all))
	}
	// The two sides give the next id to different tuples, so a posting
	// list written through by one side misleads the other's probes.
	c.Append([]Tuple{NewTuple("r", "a", "clone")})
	ix.Append([]Tuple{NewTuple("s", "z"), NewTuple("r", "a", "orig")})
	if got, want := probe(ix), "r(a, b) r(a, c) r(a, d) r(a, orig) | 5"; got != want {
		t.Errorf("original probe %q, want %q", got, want)
	}
	if got, want := probe(c), "r(a, c) r(a, d) r(a, clone) | 4"; got != want {
		t.Errorf("clone probe %q, want %q", got, want)
	}
	if !ix.Live(0) || ix.NumDead() != 1 || c.Live(0) || c.NumDead() != 2 {
		t.Errorf("tombstones leaked: original live(0)=%v dead=%d, clone live(0)=%v dead=%d",
			ix.Live(0), ix.NumDead(), c.Live(0), c.NumDead())
	}
	ix.Remove([]int32{1})
	if !c.Live(1) {
		t.Error("original's removal tombstoned the clone's slot")
	}
}

// The search scratch must make repeated enumerations allocation-free
// (beyond the one-time memo fills).
func TestSearcherSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	target := randomInstance(rng, 50, false)
	block := randomBlock(rng)
	s := NewSearcher(NewIndex(target))
	run := func() {
		s.EnumeratePartialHoms(block, 0, func(m *IndexedMatch) bool { return true })
	}
	run() // warm memos and scratch
	if avg := testing.AllocsPerRun(20, run); avg > 0 {
		t.Errorf("steady-state enumeration allocates %.1f objects/run, want 0", avg)
	}
}
