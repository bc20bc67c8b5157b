// Package data models ground and labelled-null data instances: values,
// tuples, relation-indexed instances, canonical forms, and the
// homomorphism utilities the chase and the Eq. (9) coverage measures
// are built on.
package data

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

// Value is either a constant (a string) or a labelled null.
// The zero Value is the empty constant.
type Value struct {
	name string
	null bool
}

// Const returns a constant value.
func Const(s string) Value { return Value{name: s} }

// NullValue returns a labelled null with the given label. Labels are
// usually produced by a NullFactory so that they are unique per chase.
func NullValue(label string) Value { return Value{name: label, null: true} }

// IsNull reports whether v is a labelled null.
func (v Value) IsNull() bool { return v.null }

// Name returns the constant text or the null label.
func (v Value) Name() string { return v.name }

// String renders constants verbatim and nulls with a leading '⊥'.
func (v Value) String() string {
	if v.null {
		return "⊥" + v.name
	}
	return v.name
}

// NullFactory mints fresh labelled nulls N1, N2, ...
type NullFactory struct {
	n int
}

// Fresh returns a new labelled null, distinct from all previous ones
// minted by this factory.
func (f *NullFactory) Fresh() Value {
	f.n++
	return NullValue(fmt.Sprintf("N%d", f.n))
}

// Count returns how many nulls have been minted.
func (f *NullFactory) Count() int { return f.n }

// Tuple is a fact: a relation name plus an argument list.
type Tuple struct {
	Rel  string
	Args []Value
}

// NewTuple builds a tuple of constants; convenient in tests.
func NewTuple(rel string, consts ...string) Tuple {
	args := make([]Value, len(consts))
	for i, c := range consts {
		args[i] = Const(c)
	}
	return Tuple{Rel: rel, Args: args}
}

// Arity returns the number of arguments.
func (t Tuple) Arity() int { return len(t.Args) }

// HasNull reports whether any argument is a labelled null.
func (t Tuple) HasNull() bool {
	for _, a := range t.Args {
		if a.IsNull() {
			return true
		}
	}
	return false
}

// Nulls returns the distinct null labels appearing in t, in order of
// first occurrence.
func (t Tuple) Nulls() []string {
	var out []string
	seen := make(map[string]bool)
	for _, a := range t.Args {
		if a.IsNull() && !seen[a.Name()] {
			seen[a.Name()] = true
			out = append(out, a.Name())
		}
	}
	return out
}

// Key returns a canonical string identity for the tuple. Two tuples
// are the same fact iff their keys are equal (null labels included).
func (t Tuple) Key() string {
	var b strings.Builder
	b.WriteString(t.Rel)
	b.WriteByte('(')
	for i, a := range t.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		if a.IsNull() {
			b.WriteByte('\x00') // separate null namespace from constants
		}
		b.WriteString(a.Name())
	}
	b.WriteByte(')')
	return b.String()
}

// Pattern returns the null-insensitive canonical form: constants
// verbatim, every null replaced by '*'. Used by tuple-level metrics.
func (t Tuple) Pattern() string {
	var b strings.Builder
	b.WriteString(t.Rel)
	b.WriteByte('(')
	for i, a := range t.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		if a.IsNull() {
			b.WriteByte('*')
		} else {
			b.WriteString(a.Name())
		}
	}
	b.WriteByte(')')
	return b.String()
}

// CanonPattern returns a canonical form that identifies tuples up to
// a renaming of their labelled nulls: constants verbatim, nulls
// numbered by first occurrence (so t(a,N1,N1) → "t(a,*0,*0)" differs
// from t(a,N2,N3) → "t(a,*0,*1)"). Two tuples are homomorphically
// equivalent (as single tuples) iff their CanonPatterns are equal.
func (t Tuple) CanonPattern() string {
	var b strings.Builder
	b.WriteString(t.Rel)
	b.WriteByte('(')
	idx := make(map[string]int)
	for i, a := range t.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		if a.IsNull() {
			n, ok := idx[a.Name()]
			if !ok {
				n = len(idx)
				idx[a.Name()] = n
			}
			fmt.Fprintf(&b, "*%d", n)
		} else {
			b.WriteString(a.Name())
		}
	}
	b.WriteByte(')')
	return b.String()
}

// String renders the tuple for humans.
func (t Tuple) String() string {
	parts := make([]string, len(t.Args))
	for i, a := range t.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", t.Rel, strings.Join(parts, ", "))
}

// Equal reports exact equality (same relation, same values, same null
// labels).
func (t Tuple) Equal(u Tuple) bool {
	if t.Rel != u.Rel || len(t.Args) != len(u.Args) {
		return false
	}
	for i := range t.Args {
		if t.Args[i] != u.Args[i] {
			return false
		}
	}
	return true
}

// Instance is a set of tuples grouped by relation, with O(1) membership.
type Instance struct {
	rels  map[string][]Tuple
	keys  map[string]bool
	order []string // relation insertion order
	size  int
	// version counts successful mutations (Add/Remove/Union hits), so
	// consumers holding derived state (indices, cover evidence) can
	// detect that the instance changed underneath them.
	version uint64
}

// Version returns a counter that increases on every successful
// mutation of the instance (an Add that inserted, a Remove that
// deleted). Two reads returning the same value bracket a span with no
// mutations; core.Problem uses this to reject solves on stale
// evidence.
func (in *Instance) Version() uint64 { return in.version }

// NewInstance returns an empty instance.
func NewInstance() *Instance {
	return &Instance{rels: make(map[string][]Tuple), keys: make(map[string]bool)}
}

// Add inserts the tuple if not already present; reports whether it was
// inserted.
func (in *Instance) Add(t Tuple) bool {
	k := t.Key()
	if in.keys[k] {
		return false
	}
	in.keys[k] = true
	if _, ok := in.rels[t.Rel]; !ok {
		in.order = append(in.order, t.Rel)
	}
	in.rels[t.Rel] = append(in.rels[t.Rel], t)
	in.size++
	in.version++
	return true
}

// AddAll inserts every tuple, returning the number actually inserted.
func (in *Instance) AddAll(ts []Tuple) int {
	n := 0
	for _, t := range ts {
		if in.Add(t) {
			n++
		}
	}
	return n
}

// Remove deletes the tuple if present; reports whether it was present.
func (in *Instance) Remove(t Tuple) bool {
	k := t.Key()
	if !in.keys[k] {
		return false
	}
	delete(in.keys, k)
	ts := in.rels[t.Rel]
	for i := range ts {
		if ts[i].Key() == k {
			in.rels[t.Rel] = append(ts[:i:i], ts[i+1:]...)
			break
		}
	}
	in.size--
	in.version++
	return true
}

// Has reports tuple membership (exact, null labels included).
func (in *Instance) Has(t Tuple) bool { return in.keys[t.Key()] }

// Tuples returns the tuples of one relation (shared slice; do not
// mutate).
func (in *Instance) Tuples(rel string) []Tuple { return in.rels[rel] }

// Relations returns the relation names present, in insertion order,
// skipping relations whose tuple lists became empty.
func (in *Instance) Relations() []string {
	out := make([]string, 0, len(in.order))
	for _, r := range in.order {
		if len(in.rels[r]) > 0 {
			out = append(out, r)
		}
	}
	return out
}

// Len returns the total number of tuples.
func (in *Instance) Len() int { return in.size }

// All returns every tuple, grouped by relation in insertion order.
func (in *Instance) All() []Tuple {
	out := make([]Tuple, 0, in.size)
	for _, r := range in.order {
		out = append(out, in.rels[r]...)
	}
	return out
}

// Clone returns an independent copy: later mutations of either side
// never show in the other. Tuples are immutable by convention and
// shared, and the copy re-derives no tuple key. Each relation slice is
// capacity-limited, so an Add on either side reallocates instead of
// writing into the shared backing array (Remove already builds a new
// slice). The clone starts at the original's version, so a forked
// core.Problem can keep the evidence recorded against the original.
func (in *Instance) Clone() *Instance {
	c := &Instance{
		rels:    make(map[string][]Tuple, len(in.rels)),
		keys:    maps.Clone(in.keys),
		order:   slices.Clone(in.order),
		size:    in.size,
		version: in.version,
	}
	for r, ts := range in.rels {
		c.rels[r] = ts[:len(ts):len(ts)]
	}
	return c
}

// Union adds every tuple of other into in.
func (in *Instance) Union(other *Instance) {
	for _, t := range other.All() {
		in.Add(t)
	}
}

// Equal reports whether two instances hold exactly the same facts.
func (in *Instance) Equal(other *Instance) bool {
	if in.size != other.size {
		return false
	}
	for k := range in.keys {
		if !other.keys[k] {
			return false
		}
	}
	return true
}

// String renders the instance sorted for stable test output.
func (in *Instance) String() string {
	lines := make([]string, 0, in.size)
	for _, t := range in.All() {
		lines = append(lines, t.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// MatchConstPositions reports whether cand agrees with t on every
// position where t holds a constant (i.e. whether the single-tuple
// homomorphism condition holds, with cand as the image). Nulls in t
// may map to anything; constants must be preserved.
func MatchConstPositions(t, cand Tuple) bool {
	if t.Rel != cand.Rel || len(t.Args) != len(cand.Args) {
		return false
	}
	for i, a := range t.Args {
		if !a.IsNull() && a != cand.Args[i] {
			return false
		}
	}
	return true
}

// Ground replaces every labelled null in the instance by a fresh
// constant, consistently (the same null maps to the same constant).
// The prefix controls the generated constant names. Used to turn a
// universal solution into a ground data example J.
func (in *Instance) Ground(prefix string) *Instance {
	out := NewInstance()
	assign := make(map[string]Value)
	next := 0
	for _, t := range in.All() {
		args := make([]Value, len(t.Args))
		for i, a := range t.Args {
			if !a.IsNull() {
				args[i] = a
				continue
			}
			v, ok := assign[a.Name()]
			if !ok {
				next++
				v = Const(fmt.Sprintf("%s%d", prefix, next))
				assign[a.Name()] = v
			}
			args[i] = v
		}
		out.Add(Tuple{Rel: t.Rel, Args: args})
	}
	return out
}
