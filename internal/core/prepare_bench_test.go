package core

import (
	"testing"

	"schemamap/internal/ibench"
)

// Serial vs parallel Prepare on a generated iBench scenario: the
// per-candidate chase + cover analysis is embarrassingly parallel, so
// the parallel pool should approach a GOMAXPROCS-fold speedup. Future
// PRs track the ratio here.

func benchPrepareScenario(b *testing.B) *ibench.Scenario {
	b.Helper()
	cfg := ibench.DefaultConfig(16, 42)
	cfg.Rows = 30
	cfg.PiCorresp = 50
	sc, err := ibench.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

func benchmarkPrepare(b *testing.B, workers int) {
	sc := benchPrepareScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewProblem(sc.I, sc.J, sc.Candidates)
		p.PrepareN(workers)
	}
}

func BenchmarkPrepareSerial(b *testing.B)   { benchmarkPrepare(b, 1) }
func BenchmarkPrepareWorkers2(b *testing.B) { benchmarkPrepare(b, 2) }
func BenchmarkPrepareWorkers4(b *testing.B) { benchmarkPrepare(b, 4) }
func BenchmarkPrepareParallel(b *testing.B) { benchmarkPrepare(b, 0) } // GOMAXPROCS

// Forking a streaming-prepared problem copies its evidence instead of
// preparing again; the cold benchmark is what a fork cost when it
// re-ran PrepareStreaming on the cloned target. The scenario is
// bench-M (internal/bench.Scales), the scale the serve workload uses.
func benchForkScenario(b *testing.B) *ibench.Scenario {
	b.Helper()
	cfg := ibench.DefaultConfig(28, 28)
	cfg.Rows = 24
	cfg.PiCorresp = 20
	cfg.PiErrors = 10
	cfg.PiUnexplained = 10
	sc, err := ibench.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

var forkSink *Problem

func BenchmarkFork(b *testing.B) {
	sc := benchForkScenario(b)
	p := NewProblem(sc.I, sc.J, sc.Candidates)
	p.PrepareStreaming(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forkSink = p.Fork()
	}
}

func BenchmarkForkColdPrepare(b *testing.B) {
	sc := benchForkScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forkSink = NewProblem(sc.I, sc.J.Clone(), sc.Candidates)
		forkSink.PrepareStreaming(0)
	}
}
