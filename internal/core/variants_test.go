package core

import (
	"fmt"
	"strings"
	"testing"

	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

func TestKParticlesSettleExactlyK(t *testing.T) {
	g := graph.Hypercube(5)
	for name, run := range allProcesses() {
		for _, k := range []int{1, 5, 16, 32} {
			res, err := run(g, 0, Options{Particles: k, Record: true}, rng.New(21))
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			if len(res.SettledAt) != k {
				t.Fatalf("%s k=%d: %d results", name, k, len(res.SettledAt))
			}
			if err := res.Check(g); err != nil {
				t.Errorf("%s k=%d: %v", name, k, err)
			}
			seen := map[int32]bool{}
			for _, v := range res.SettledAt {
				if seen[v] {
					t.Fatalf("%s k=%d: vertex %d settled twice", name, k, v)
				}
				seen[v] = true
			}
		}
	}
}

func TestKParticlesRejectsBadCounts(t *testing.T) {
	g := graph.Path(8)
	for _, k := range []int{-1, 9, 100} {
		_, err := Run(SequentialInto, g, 0, Options{Particles: k}, rng.New(1))
		if err == nil {
			t.Errorf("Particles=%d accepted", k)
			continue
		}
		// The message must report the resolved particle count, not the
		// raw option value (they differ once defaulting applies).
		if want := fmt.Sprintf("core: %d particles", k); !strings.Contains(err.Error(), want) {
			t.Errorf("Particles=%d error %q does not report the resolved count", k, err)
		}
	}
}

func TestKParticleDispersionMonotoneOnClique(t *testing.T) {
	// Section 6.2 intuition: more particles compete for fewer vacancies,
	// so the (mean) dispersion grows with k.
	g := graph.Complete(64)
	root := rng.New(31)
	const trials = 300
	var prev float64 = -1
	for _, k := range []int{16, 32, 64} {
		var sum float64
		for i := 0; i < trials; i++ {
			res, err := Run(ParallelInto, g, 0, Options{Particles: k}, root.Split(uint64(k), uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			sum += float64(res.Dispersion)
		}
		mean := sum / trials
		if mean < prev {
			t.Errorf("mean parallel dispersion decreased with k: %.1f -> %.1f at k=%d", prev, mean, k)
		}
		prev = mean
	}
}

func TestRandomOriginsValid(t *testing.T) {
	g := graph.Grid([]int{5, 5}, false)
	for name, run := range allProcesses() {
		res, err := run(g, 0, Options{RandomOrigins: true, Record: true}, rng.New(41))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := res.Check(g); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRandomOriginsInstantSettlements(t *testing.T) {
	// With all n particles dropped uniformly at random, many land on
	// distinct vertices and settle instantly (zero steps).
	g := graph.Complete(64)
	res, err := Run(ParallelInto, g, 0, Options{RandomOrigins: true}, rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, s := range res.Steps {
		if s == 0 {
			zeros++
		}
	}
	// Expected distinct-origin count ~ n(1-1/e) ≈ 40; demand at least 20.
	if zeros < 20 {
		t.Errorf("only %d instant settlements with random origins", zeros)
	}
}

func TestRandomOriginsFasterOnPath(t *testing.T) {
	// Spreading the origins must beat launching everything from the
	// endpoint of a path (where the aggregate forms a growing barrier).
	g := graph.Path(64)
	root := rng.New(47)
	const trials = 60
	var fixed, random float64
	for i := 0; i < trials; i++ {
		a, err := Run(SequentialInto, g, 0, Options{}, root.Split(1, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(SequentialInto, g, 0, Options{RandomOrigins: true}, root.Split(2, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		fixed += float64(a.Dispersion)
		random += float64(b.Dispersion)
	}
	if random > fixed*0.8 {
		t.Errorf("random origins (%.0f) not clearly faster than endpoint origin (%.0f)",
			random/trials, fixed/trials)
	}
}

func TestKParticlesSequentialFasterThanFull(t *testing.T) {
	// With k = n/4 particles on the clique each walk finds one of >= 3n/4
	// vacancies: dispersion should be far below the full process.
	g := graph.Complete(64)
	root := rng.New(53)
	const trials = 200
	var quarter, full float64
	for i := 0; i < trials; i++ {
		a, _ := Run(SequentialInto, g, 0, Options{Particles: 16}, root.Split(1, uint64(i)))
		b, _ := Run(SequentialInto, g, 0, Options{}, root.Split(2, uint64(i)))
		quarter += float64(a.Dispersion)
		full += float64(b.Dispersion)
	}
	if quarter > full/3 {
		t.Errorf("k=n/4 dispersion %.1f not well below full %.1f", quarter/trials, full/trials)
	}
}

func TestLastSettledVertexOnTreeIsLeaf(t *testing.T) {
	// The observation driving Theorem 3.7's proof: in the Sequential-IDLA
	// on a tree, the last vertex to be settled is always a leaf (an
	// internal vertex separates the tree, so it must fill before both of
	// its sides can).
	root := rng.New(61)
	trees := []graph.Graph{
		graph.Star(12),
		graph.Path(12),
		graph.CompleteBinaryTree(4),
		graph.RandomTree(15, root),
		graph.Comb(4, 2),
	}
	for _, g := range trees {
		for trial := 0; trial < 40; trial++ {
			res, err := Run(SequentialInto, g, 0, Options{}, root.Split(9, uint64(trial)))
			if err != nil {
				t.Fatal(err)
			}
			lastParticle := res.SettleOrder[len(res.SettleOrder)-1]
			lastVertex := res.SettledAt[lastParticle]
			if g.Degree(int(lastVertex)) != 1 {
				t.Fatalf("%s trial %d: last settled vertex %d has degree %d, want a leaf",
					g.Name(), trial, lastVertex, g.Degree(int(lastVertex)))
			}
		}
	}
}

func TestRuleAppliesAtTimeZero(t *testing.T) {
	// The settlement rule also governs the instant settlement of the
	// first particle (ρ̃ semantics: it vetoes settling at the origin).
	g := graph.Complete(16)
	rule := func(v int32, step int64) bool { return step >= 3 }
	res, err := Run(SequentialInto, g, 0, Options{Rule: rule}, rng.New(59))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Steps {
		if s < 3 {
			t.Fatalf("particle %d settled after %d steps despite rule", i, s)
		}
	}
}
