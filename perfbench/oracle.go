package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// outcome is what the oracle compares for one solve: the Eq. (9)
// objective and a digest of the selected candidate indices.
type outcome struct {
	Objective float64
	Digest    uint64
}

// digestOf hashes a set of selected candidate indices (FNV-1a over the
// ascending indices), so equal selections digest equally regardless of
// the order they are listed in.
func digestOf(indices []int) uint64 {
	s := append([]int(nil), indices...)
	sort.Ints(s)
	h := fnv.New64a()
	var b [8]byte
	for _, i := range s {
		for k := range b {
			b[k] = byte(uint64(i) >> (8 * k))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// objectiveTol is the relative tolerance on objectives. Solves are
// deterministic, so a reference reproduces to the last bit; the slack
// only absorbs a different summation order, never a different choice.
const objectiveTol = 1e-9

// check reports whether got reproduces the reference want.
func check(want, got outcome) error {
	if d := math.Abs(got.Objective - want.Objective); d > objectiveTol*math.Max(1, math.Abs(want.Objective)) {
		return fmt.Errorf("objective %.17g, reference %.17g", got.Objective, want.Objective)
	}
	if got.Digest != want.Digest {
		return fmt.Errorf("selection digest %016x, reference %016x", got.Digest, want.Digest)
	}
	return nil
}

// checkAll compares a sequence of outcomes against its reference.
func checkAll(want, got []outcome) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d solves, reference has %d", len(got), len(want))
	}
	for i := range want {
		if err := check(want[i], got[i]); err != nil {
			return fmt.Errorf("solve %d: %w", i, err)
		}
	}
	return nil
}

// defaultSeed is the seed whose inputs are the unpermuted scenarios;
// its references are pinned below. Any other seed takes its reference
// from an in-process replay during set-up.
const defaultSeed = 0

// pinned holds the reference outcomes of the default seed, per
// workload: bulk's one solve, churn's per-step warm solves, and the
// serve session's cold solve followed by its warm solves.
var pinned = map[string][]outcome{
	"bulk": {
		{792.59999999999104, 0x61ca29d05d70f1d7},
	},
	"churn": {
		{1470.6666666666674, 0x082c5e287f158c68},
		{1469.166666666667, 0x7ea2b045972154a6},
		{1494.3333333333323, 0x6503752f215a5883},
		{1465.6666666666665, 0x74b2cea0e6f9176d},
		{1480.5333333333338, 0xaec455ad1854555d},
		{1474.3999999999999, 0xf6b30321f189f5b8},
		{1500.5999999999999, 0xe01a387d33b8fc93},
		{1501.6999999999996, 0x7f903ea6b6ac6dc8},
		{1517.5, 0x4912f17acb3b4e7e},
		{1523.4333333333334, 0x382f87c4b018d5e4},
		{1508.8333333333335, 0x90bfec88e586301d},
		{1493.5666666666666, 0xd324a3c7857715e8},
		{1468.4666666666672, 0x4245df05b65ee398},
		{1454.333333333333, 0xe42ac48dc4258f3b},
		{1413.8333333333314, 0x24cb177856574d41},
		{1427.0333333333301, 0x2e9383fd29323583},
		{1369.9333333333318, 0x63dc843a990edfc7},
		{1360.2666666666642, 0x27ba0e8ee1c8442e},
		{1310.2999999999975, 0xc166a4ca63e2400e},
		{1295.0333333333306, 0x13f2db3d6261b91f},
		{1167.5666666666657, 0x38ba3497fba2ca02},
		{1140.9666666666656, 0x60b6d55245e906b1},
		{978.09047619047419, 0xbd42f030521489d1},
		{871.39523809523666, 0x0cd9f58f423c151e},
	},
	"serve": {
		{451.43333333333334, 0x1f6f5e0ba9974387},
		{484.73333333333318, 0x7c4bfed4c6067b39},
		{463.4000000000002, 0x3e02aad7a5f46f1d},
		{384.06666666666683, 0x9ab8c2a5c1bc54cf},
		{283.84285714285727, 0xa96147170a860944},
	},
}

// pinnedFor returns the pinned references of a full-size workload run
// at the default seed, and nil when the reference must be computed.
func pinnedFor(workload string, seed int64, short bool) []outcome {
	if seed != defaultSeed || short {
		return nil
	}
	return pinned[workload]
}
