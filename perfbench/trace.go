package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// spanID identifies a span within one tracer; 0 means "no span" (the
// parent of a root, or any span of a disabled tracer).
type spanID int32

// span is one timed call made by the benchmark into a module's public
// function, or the root that groups the calls of one op.
type span struct {
	ID     spanID `json:"id"`
	Parent spanID `json:"parent"`
	// Root is the ID of the root span this span belongs to; a root's
	// Root is its own ID, and names the op the span serves.
	Root  spanID `json:"root"`
	Name  string `json:"name"`
	Start int64  `json:"startNs"` // since the tracer's epoch
	End   int64  `json:"endNs"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// disabled tracer: every method is a cheap no-op, so workload code
// calls it unconditionally.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (0 opens a root) and returns its ID.
func (t *tracer) begin(name string, parent spanID) spanID {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := spanID(len(t.spans) + 1)
	root := id
	if parent != 0 {
		root = t.spans[parent-1].Root
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Root: root, Name: name, Start: now, End: now})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id spanID) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a closed span with explicit bounds, for intervals read
// off a solver's progress callback rather than around a call.
func (t *tracer) record(name string, parent spanID, start, end time.Time) {
	if t == nil || start.IsZero() || end.Before(start) {
		return
	}
	id := t.begin(name, parent)
	t.mu.Lock()
	t.spans[id-1].Start = int64(start.Sub(t.epoch))
	t.spans[id-1].End = int64(end.Sub(t.epoch))
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time in ms: its duration minus
// the part of its interval that its children cover. Children that
// overlap each other are counted once.
func selfTimes(spans []span) []float64 {
	children := make([][]span, len(spans)+1)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = float64(s.End-s.Start-covered(s, children[s.ID])) / 1e6
	}
	return self
}

// covered returns how many ns of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// layerSelf groups self times (ms) by span name, skipping roots.
func layerSelf(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := make(map[string][]float64)
	for i, s := range spans {
		if s.Parent != 0 {
			out[s.Name] = append(out[s.Name], self[i])
		}
	}
	return out
}

// reconcileBound is the largest share of an op's wall time the layer
// spans may leave unattributed (the op root's own self time).
const reconcileBound = 0.10

// reconciliation checks that the self times of every op tree add up
// to the op's wall time and that the layer spans account for all but
// reconcileBound of it. It returns the median unattributed share.
func reconciliation(spans []span, opName string) (unattributed float64, err error) {
	self := selfTimes(spans)
	sum := make(map[spanID]float64)
	for i, s := range spans {
		sum[s.Root] += self[i]
	}
	var shares []float64
	for i, s := range spans {
		if s.Parent != 0 || s.Name != opName {
			continue
		}
		wall := s.ms()
		if wall <= 0 {
			continue
		}
		if d := sum[s.ID] - wall; d > 1e-6*wall || d < -1e-6*wall {
			return 0, fmt.Errorf("op %d: self times sum to %.4f ms, op wall time is %.4f ms", s.ID, sum[s.ID], wall)
		}
		shares = append(shares, self[i]/wall)
	}
	if len(shares) == 0 {
		return 0, fmt.Errorf("no traced %q spans", opName)
	}
	unattributed = median(shares)
	if unattributed > reconcileBound {
		return unattributed, fmt.Errorf("layer spans leave %.1f%% of op wall time unattributed (bound %.0f%%)",
			100*unattributed, 100*reconcileBound)
	}
	return unattributed, nil
}
