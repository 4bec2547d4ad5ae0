package core

import (
	"reflect"
	"testing"

	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

// variantRuns maps each new variant process's one-shot form for
// table-driven tests.
func variantRuns() map[string]runner {
	return map[string]runner{
		"sequential-geom":      oneShot(SequentialGeomInto),
		"sequential-threshold": oneShot(SequentialThresholdInto),
		"capacity":             oneShot(CapacitySequentialInto),
		"capacity-parallel":    oneShot(CapacityParallelInto),
	}
}

// The recording and non-recording paths of every variant must consume the
// same RNG stream: same seed, same scalar outcome, and recorded
// trajectories that pass the structural Check.
func TestVariantRecordMatchesHotPath(t *testing.T) {
	g := graph.Grid([]int{4, 4}, true)
	for name, run := range variantRuns() {
		plain, err := run(g, 0, Options{}, rng.New(17))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rec, err := run(g, 0, Options{Record: true}, rng.New(17))
		if err != nil {
			t.Fatalf("%s record: %v", name, err)
		}
		if plain.Dispersion != rec.Dispersion || plain.TotalSteps != rec.TotalSteps ||
			!reflect.DeepEqual(plain.SettledAt, rec.SettledAt) {
			t.Errorf("%s: recording changed the sample path", name)
		}
		if err := rec.Check(g); err != nil {
			t.Errorf("%s: recorded run fails Check: %v", name, err)
		}
	}
}

// One-shot and *Into forms share buffers correctly: consecutive Into runs
// through one Scratch reproduce independent one-shot runs draw for draw.
func TestVariantIntoReuse(t *testing.T) {
	g := graph.Star(9)
	intos := map[string]func(graph.Graph, int, Options, *rng.Source, *Scratch, *Result) error{
		"sequential-geom":      SequentialGeomInto,
		"sequential-threshold": SequentialThresholdInto,
		"capacity":             CapacitySequentialInto,
		"capacity-parallel":    CapacityParallelInto,
	}
	for name, into := range intos {
		oneshot := variantRuns()[name]
		s := NewScratch()
		var res Result
		for trial := uint64(0); trial < 300; trial++ {
			want, err := oneshot(g, 0, Options{}, rng.New(trial))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := into(g, 0, Options{}, rng.New(trial), s, &res); err != nil {
				t.Fatalf("%s into: %v", name, err)
			}
			if res.Dispersion != want.Dispersion || res.TotalSteps != want.TotalSteps ||
				!reflect.DeepEqual(res.SettledAt, want.SettledAt) {
				t.Fatalf("%s trial %d: Into diverged from one-shot", name, trial)
			}
		}
	}
}

// Capacity bookkeeping: a full run hosts exactly c particles on every
// vertex, partial loads never exceed c anywhere.
func TestCapacityOccupancy(t *testing.T) {
	g := graph.Cycle(12)
	for name, run := range map[string]runner{
		"capacity": oneShot(CapacitySequentialInto), "capacity-parallel": oneShot(CapacityParallelInto),
	} {
		for _, opt := range []Options{
			{Capacity: 3},
			{Capacity: 3, Particles: 20},
			{}, // default capacity 2, full load
		} {
			res, err := run(g, 0, opt, rng.New(5))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			c := opt.Capacity
			if c == 0 {
				c = DefaultCapacity
			}
			wantK := opt.Particles
			if wantK == 0 {
				wantK = c * g.N()
			}
			if len(res.SettledAt) != wantK {
				t.Fatalf("%s: %d particles, want %d", name, len(res.SettledAt), wantK)
			}
			if res.Capacity != c {
				t.Errorf("%s: Result.Capacity = %d, want %d", name, res.Capacity, c)
			}
			hosts := make([]int, g.N())
			for _, v := range res.SettledAt {
				hosts[v]++
			}
			for v, h := range hosts {
				if h > c {
					t.Fatalf("%s: vertex %d hosts %d > capacity %d", name, v, h, c)
				}
				if wantK == c*g.N() && h != c {
					t.Fatalf("%s: full run left vertex %d at %d/%d", name, v, h, c)
				}
			}
		}
	}
}

// MaxSteps truncation fires on the variant processes and marks the run.
func TestVariantMaxSteps(t *testing.T) {
	g := graph.Cycle(64)
	for name, run := range variantRuns() {
		res, err := run(g, 0, Options{MaxSteps: 10}, rng.New(3))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Truncated {
			t.Errorf("%s: MaxSteps=10 did not truncate", name)
		}
		// Sequential disciplines stop mid-walk at the bound; the parallel
		// discipline checks at round granularity, overshooting by at most
		// one step per particle.
		if limit := 10 + int64(len(res.Steps)); res.TotalSteps > limit {
			t.Errorf("%s: truncated run walked %d total steps (limit %d)", name, res.TotalSteps, limit)
		}
	}
}

// Successive capacity runs through one Scratch must not leak counts
// across epochs — including across the uint8 epoch wrap.
func TestCapacityEpochWrap(t *testing.T) {
	g := graph.Complete(6)
	s := NewScratch()
	var res Result
	for trial := 0; trial < 600; trial++ {
		if err := CapacitySequentialInto(g, 0, Options{}, rng.New(uint64(trial)), s, &res); err != nil {
			t.Fatal(err)
		}
		hosts := make([]int, g.N())
		for _, v := range res.SettledAt {
			hosts[v]++
		}
		for v, h := range hosts {
			if h != DefaultCapacity {
				t.Fatalf("trial %d: vertex %d hosts %d, want %d (stale counts leaked)",
					trial, v, h, DefaultCapacity)
			}
		}
	}
}
