package main

import (
	"math/rand"

	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

// The workload seed permutes a workload's fixed scenario rather than
// generating a different one: it reorders the candidates, the source
// and target tuples, and every mutation batch. Each seed is therefore
// a different input — other candidate indices, other tuple ids, other
// hash and insertion orders — of exactly the same size and structure,
// so the spread across seeds measures the system, not the input size.
// The default seed keeps the generated order.

// permuter deals seeded permutations; with the default seed it is the
// identity.
type permuter struct{ rng *rand.Rand }

func newPermuter(seed int64) permuter {
	if seed == defaultSeed {
		return permuter{}
	}
	return permuter{rng: rand.New(rand.NewSource(seed))}
}

func (p permuter) tuples(ts []data.Tuple) []data.Tuple {
	out := append([]data.Tuple(nil), ts...)
	if p.rng != nil {
		p.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

func (p permuter) instance(in *data.Instance) *data.Instance {
	out := data.NewInstance()
	out.AddAll(p.tuples(in.All()))
	return out
}

func (p permuter) mapping(m tgd.Mapping) tgd.Mapping {
	out := append(tgd.Mapping(nil), m...)
	if p.rng != nil {
		p.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}
