// Package dispersion_test holds the repository-level benchmark harness:
// one testing.B target per Table 1 row / experiment of the paper (the
// experiment index in DESIGN.md maps IDs to targets), plus ablation
// benchmarks for the design decisions called out in DESIGN.md.
//
// Run with: go test -bench=. -benchmem
package dispersion_test

import (
	"context"
	"testing"

	"dispersion"
	"dispersion/agg"
	"dispersion/internal/benchsuite"
	"dispersion/internal/block"
	"dispersion/internal/core"
	"dispersion/internal/exact"
	"dispersion/internal/graph"
	"dispersion/internal/markov"
	"dispersion/internal/rng"
	"dispersion/internal/walk"
)

// benchDispersion runs one realization of the process into per iteration.
func benchDispersion[R core.Result | core.CTResult](b *testing.B, g *graph.CSR, origin int,
	into func(graph.Graph, int, core.Options, *rng.Source, *core.Scratch, *R) error, opt core.Options) {
	b.Helper()
	r := rng.New(uint64(b.N)) // distinct stream per sizing pass
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(into, g, origin, opt, r); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 1 rows (experiments E01-E09) ---

func BenchmarkTable1CliqueSeq(b *testing.B) {
	benchDispersion(b, graph.Complete(512), 0, core.SequentialInto, core.Options{})
}

func BenchmarkTable1CliquePar(b *testing.B) {
	benchDispersion(b, graph.Complete(512), 0, core.ParallelInto, core.Options{})
}

func BenchmarkTable1PathSeq(b *testing.B) {
	benchDispersion(b, graph.Path(128), 0, core.SequentialInto, core.Options{})
}

func BenchmarkTable1PathPar(b *testing.B) {
	benchDispersion(b, graph.Path(128), 0, core.ParallelInto, core.Options{})
}

func BenchmarkTable1CycleSeq(b *testing.B) {
	benchDispersion(b, graph.Cycle(128), 0, core.SequentialInto, core.Options{})
}

func BenchmarkTable1Grid2DSeq(b *testing.B) {
	benchDispersion(b, graph.Grid([]int{16, 16}, true), 0, core.SequentialInto, core.Options{})
}

func BenchmarkTable1Grid3DSeq(b *testing.B) {
	benchDispersion(b, graph.Grid([]int{8, 8, 8}, true), 0, core.SequentialInto, core.Options{})
}

func BenchmarkTable1HypercubeSeq(b *testing.B) {
	benchDispersion(b, graph.Hypercube(9), 0, core.SequentialInto, core.Options{})
}

func BenchmarkTable1BinaryTreeSeq(b *testing.B) {
	benchDispersion(b, graph.CompleteBinaryTree(9), 0, core.SequentialInto, core.Options{})
}

func BenchmarkTable1ExpanderSeq(b *testing.B) {
	g, err := graph.RandomRegular(512, 4, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	benchDispersion(b, g, 0, core.SequentialInto, core.Options{})
}

func BenchmarkLollipopSeq(b *testing.B) {
	benchDispersion(b, graph.Lollipop(32), 0, core.SequentialInto, core.Options{})
}

// --- Coupling experiments (E10-E19) ---

func BenchmarkDomination(b *testing.B) {
	// E10: one paired seq/par sample per iteration.
	g := graph.Complete(64)
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(core.SequentialInto, g, 0, core.Options{}, r); err != nil {
			b.Fatal(err)
		}
		if _, err := core.Run(core.ParallelInto, g, 0, core.Options{}, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLazyFactor(b *testing.B) {
	benchDispersion(b, graph.Cycle(64), 0, core.SequentialInto, core.Options{Lazy: true})
}

func BenchmarkCTUvsParallel(b *testing.B) {
	benchDispersion(b, graph.Complete(256), 0, core.CTUniformInto, core.Options{})
}

func BenchmarkConcentrationGadgets(b *testing.B) {
	benchDispersion(b, graph.CliqueWithHair(96), 0, core.ParallelInto, core.Options{})
}

func BenchmarkHittingGap(b *testing.B) {
	// E14: exact tree hitting time on the counterexample tree.
	g := graph.BinaryTreeWithPath(10, 32)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += markov.TreeHit(g, 0, g.N()-1)
	}
	_ = sink
}

func BenchmarkLeastAction(b *testing.B) {
	n := 96
	tip := int32(graph.HairTip(n))
	rule := func(v int32, step int64) bool { return v == tip || step >= 1500 }
	benchDispersion(b, graph.CliqueWithHair(n), 0, core.SequentialInto, core.Options{Rule: rule})
}

func BenchmarkUpperBounds(b *testing.B) {
	// E16: the dense all-pairs hitting computation that feeds the bound.
	g := graph.Cycle(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := markov.NewHitting(g)
		if err != nil {
			b.Fatal(err)
		}
		if t, _, _ := h.Max(); t <= 0 {
			b.Fatal("bad hitting time")
		}
	}
}

func BenchmarkTreeLowerBound(b *testing.B) {
	benchDispersion(b, graph.Star(256), 0, core.SequentialInto, core.Options{})
}

func BenchmarkCutPaste(b *testing.B) {
	// E18: record a sequential history and push it through StP + PtS.
	g := graph.Complete(64)
	r := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.SequentialInto, g, 0, core.Options{Record: true}, r)
		if err != nil {
			b.Fatal(err)
		}
		blk, err := block.FromResult(res)
		if err != nil {
			b.Fatal(err)
		}
		if err := blk.StP(); err != nil {
			b.Fatal(err)
		}
		if err := blk.PtS(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUniform(b *testing.B) {
	benchDispersion(b, graph.Complete(128), 0, core.UniformInto, core.Options{})
}

// --- Ablations (DESIGN.md "key design decisions") ---

// mapGraph is the naive adjacency representation ablated against CSR.
type mapGraph map[int32][]int32

func buildMapGraph(g *graph.CSR) mapGraph {
	m := make(mapGraph, g.N())
	for v := 0; v < g.N(); v++ {
		m[int32(v)] = append([]int32(nil), g.Neighbors(v)...)
	}
	return m
}

func BenchmarkStepCSR(b *testing.B) {
	g := graph.Grid([]int{32, 32}, true)
	r := rng.New(4)
	v := int32(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v = walk.Step(g, v, r)
	}
	_ = v
}

func BenchmarkStepMap(b *testing.B) {
	g := graph.Grid([]int{32, 32}, true)
	m := buildMapGraph(g)
	r := rng.New(4)
	v := int32(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ns := m[v]
		v = ns[r.Intn(len(ns))]
	}
	_ = v
}

// --- Step-kernel ablations (kernel vs generic CSR dispatch) ---

// benchStepKernel drives one walk through the given kernel; pairing each
// family's selected kernel against the graph's GenericKernel isolates the
// per-step win of closed-form/offsets-free dispatch.
func benchStepKernel(b *testing.B, g *graph.CSR, k graph.Kernel) {
	b.Helper()
	r := rng.New(4)
	v := int32(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v = k.Step(v, r)
	}
	_ = v
}

func BenchmarkStepKernelClique(b *testing.B) {
	g := graph.Complete(512)
	benchStepKernel(b, g, g.Kernel())
}

func BenchmarkStepGenericClique(b *testing.B) {
	g := graph.Complete(512)
	benchStepKernel(b, g, g.GenericKernel())
}

func BenchmarkStepKernelHypercube16(b *testing.B) {
	g := graph.Hypercube(16)
	benchStepKernel(b, g, g.Kernel())
}

func BenchmarkStepGenericHypercube16(b *testing.B) {
	g := graph.Hypercube(16)
	benchStepKernel(b, g, g.GenericKernel())
}

func BenchmarkStepKernelCycle(b *testing.B) {
	g := graph.Cycle(1 << 16)
	benchStepKernel(b, g, g.Kernel())
}

func BenchmarkStepGenericCycle(b *testing.B) {
	g := graph.Cycle(1 << 16)
	benchStepKernel(b, g, g.GenericKernel())
}

func BenchmarkStepKernelTorus3D(b *testing.B) {
	g := graph.Grid([]int{8, 8, 8}, true)
	benchStepKernel(b, g, g.Kernel())
}

func BenchmarkStepGenericTorus3D(b *testing.B) {
	g := graph.Grid([]int{8, 8, 8}, true)
	benchStepKernel(b, g, g.GenericKernel())
}

// --- Engine steady-state trial throughput (the zero-allocation hot path) ---

// BenchmarkEngineSuite drives every configuration of the checked-in
// benchmark-lab suites file (benchsuites.json) through the public engine
// loop — option resolution, per-worker scratch, kernel dispatch, result
// recycling — one sub-benchmark per configuration, with allocs/op
// expected to sit at ~0 in steady state (the fixed per-run setup
// amortizes across b.N trials). cmd/benchlab measures the very same
// configurations with repeated-sample statistics; this target keeps them
// reachable from plain `go test -bench`, e.g.:
//
//	go test -bench 'EngineSuite/engine/sequential' -benchmem
func BenchmarkEngineSuite(b *testing.B) {
	f, err := benchsuite.Load("benchsuites.json")
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range f.Configs(false) {
		b.Run(cfg.Name, func(b *testing.B) {
			eng := dispersion.Engine{Seed: cfg.Seed, Workers: cfg.Workers, ReuseResults: true}
			job := cfg.Job()
			job.Trials = b.N
			b.ReportAllocs()
			b.ResetTimer()
			err := eng.Run(context.Background(), job, func(dispersion.Trial) error { return nil })
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// --- Aggregation overhead (the agg sketches on the engine hot path) ---

// benchEngineSummary is benchEngineTrials with an agg.Summary folded on
// every trial; the delta against the matching raw-callback benchmark is
// the full per-trial cost of streaming aggregation (three sketch Adds
// plus the tallies). ReuseResults stays on: the summary reads only
// scalars, which is exactly the contract the server's summary_only path
// relies on.
func benchEngineSummary(b *testing.B, process, spec string) {
	b.Helper()
	eng := dispersion.Engine{Seed: 1, ReuseResults: true}
	sum := agg.NewSummary()
	b.ReportAllocs()
	b.ResetTimer()
	err := eng.Run(context.Background(), dispersion.Job{
		Process: process, Spec: spec, Trials: b.N,
	}, func(t dispersion.Trial) error {
		sum.Add(t.Result)
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	if sum.Trials != int64(b.N) {
		b.Fatalf("summary folded %d trials, want %d", sum.Trials, b.N)
	}
}

func BenchmarkEngineCliqueSeqSummary(b *testing.B) {
	benchEngineSummary(b, "sequential", "complete:512")
}

func BenchmarkEngineCycleSeqSummary(b *testing.B) {
	benchEngineSummary(b, "sequential", "cycle:128")
}

// BenchmarkSummaryAdd isolates one Summary.Add from the engine: the
// per-value cost of the exact-sum moments, the quantile sketch, and the
// histogram together.
func BenchmarkSummaryAdd(b *testing.B) {
	res := &dispersion.Result{Process: "sequential", Dispersion: 2219, TotalSteps: 40000}
	sum := agg.NewSummary()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Dispersion = int64(1000 + i%2000) // spread across sketch buckets
		sum.Add(res)
	}
}

// BenchmarkSummaryMerge measures folding one populated shard summary
// into an accumulating one — the coordinator's per-shard cost in
// sketch-merge mode.
func BenchmarkSummaryMerge(b *testing.B) {
	shard := agg.NewSummary()
	res := &dispersion.Result{Process: "sequential"}
	for i := 0; i < 10000; i++ {
		res.Dispersion = int64(1000 + i%2000)
		shard.Add(res)
	}
	acc := agg.NewSummary()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := acc.Merge(shard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCTUHeapVsRounds ablates the event-heap continuous-time engine
// against a Poissonised round-based approximation (each round, every
// unsettled particle moves Poisson(1) times in index order).
func BenchmarkCTUHeap(b *testing.B) {
	benchDispersion(b, graph.Complete(256), 0, core.CTUniformInto, core.Options{})
}

func BenchmarkCTURoundApprox(b *testing.B) {
	g := graph.Complete(256)
	r := rng.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundApproxCTU(g, 0, r)
	}
}

// roundApproxCTU is the discretised alternative design: time advances in
// unit rounds and each unsettled particle takes Poisson(1) steps per
// round. It loses the exact event ordering that Theorem 4.8's coupling
// needs, which is why the heap engine is the primary implementation.
func roundApproxCTU(g *graph.CSR, origin int, r *rng.Source) int {
	n := g.N()
	occupied := make([]bool, n)
	occupied[origin] = true
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = int32(origin)
	}
	active := make([]int32, 0, n-1)
	for i := 1; i < n; i++ {
		active = append(active, int32(i))
	}
	rounds := 0
	for len(active) > 0 {
		rounds++
		keep := active[:0]
		for _, p := range active {
			settledHere := false
			for s := int64(0); s < r.Poisson(1); s++ {
				pos[p] = walk.Step(g, pos[p], r)
				if !occupied[pos[p]] {
					occupied[pos[p]] = true
					settledHere = true
					break
				}
			}
			if !settledHere {
				keep = append(keep, p)
			}
		}
		active = keep
	}
	return rounds
}

// --- Exact ground-truth benchmarks (E24) ---

func BenchmarkExactSequential(b *testing.B) {
	g := graph.Complete(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := exact.NewSequential(g, 0)
		if err != nil {
			b.Fatal(err)
		}
		if m, _ := e.ExpectedDispersion(400); m <= 0 {
			b.Fatal("bad exact mean")
		}
	}
}

func BenchmarkExactParallel(b *testing.B) {
	// K_5 keeps the collapsed state space small enough for a per-op
	// budget in the tens of milliseconds.
	g := graph.Complete(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := exact.NewParallel(g, 0)
		if err != nil {
			b.Fatal(err)
		}
		if m, _ := e.ExpectedDispersion(300); m <= 0 {
			b.Fatal("bad exact mean")
		}
	}
}

// --- Analytics benchmarks ---

func BenchmarkJacobiSpectrum(b *testing.B) {
	g := graph.CompleteBinaryTree(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := markov.WalkSpectrum(g)
		if err != nil {
			b.Fatal(err)
		}
		if s.Lambda2() <= 0 {
			b.Fatal("bad spectrum")
		}
	}
}

func BenchmarkAllPairsHitting(b *testing.B) {
	g := graph.Grid([]int{12, 12}, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := markov.NewHitting(g)
		if err != nil {
			b.Fatal(err)
		}
		if t, _, _ := h.Max(); t <= 0 {
			b.Fatal("bad hitting")
		}
	}
}

func BenchmarkSpectralGap(b *testing.B) {
	g := graph.Hypercube(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := markov.SpectralGap(g, 5000, 1e-10)
		if s.Gap <= 0 {
			b.Fatal("bad gap")
		}
	}
}

func BenchmarkMixingTime(b *testing.B) {
	g := graph.Hypercube(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if markov.MixingTime(g, 1<<12) <= 0 {
			b.Fatal("bad mixing time")
		}
	}
}
