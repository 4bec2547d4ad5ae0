package dispersion_test

import (
	"reflect"
	"testing"

	"dispersion"
	"dispersion/internal/core"
	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

// coreRunner invokes the matching internal/core entry point directly,
// returning the discrete result and, for continuous processes, the CT
// wrapper.
type coreRunner func(g graph.Graph, origin int, opt core.Options, r *rng.Source) (*core.Result, *core.CTResult, error)

func discreteRunner(f func(graph.Graph, int, core.Options, *rng.Source, *core.Scratch, *core.Result) error) coreRunner {
	return func(g graph.Graph, origin int, opt core.Options, r *rng.Source) (*core.Result, *core.CTResult, error) {
		res, err := core.Run(f, g, origin, opt, r)
		return res, nil, err
	}
}

func ctRunner(f func(graph.Graph, int, core.Options, *rng.Source, *core.Scratch, *core.CTResult) error) coreRunner {
	return func(g graph.Graph, origin int, opt core.Options, r *rng.Source) (*core.Result, *core.CTResult, error) {
		res, err := core.Run(f, g, origin, opt, r)
		if err != nil {
			return nil, nil, err
		}
		return &res.Result, res, err
	}
}

// TestFacadeMatchesCore asserts that every registered process × option
// combination produces byte-identical results through the public facade
// and through the direct internal/core call under the same seed.
func TestFacadeMatchesCore(t *testing.T) {
	g := graph.Grid([]int{8, 8}, true)
	n := g.N()
	rule := func(v int32, step int64) bool { return step >= 3 || v%2 == 0 }

	processes := []struct {
		name string
		opt  core.Options // the forced part of the variant (laziness)
		run  coreRunner
	}{
		{"sequential", core.Options{}, discreteRunner(core.SequentialInto)},
		{"parallel", core.Options{}, discreteRunner(core.ParallelInto)},
		{"uniform", core.Options{}, discreteRunner(core.UniformInto)},
		{"ct-uniform", core.Options{}, ctRunner(core.CTUniformInto)},
		{"ct-sequential", core.Options{}, ctRunner(core.CTSequentialInto)},
		{"lazy-sequential", core.Options{Lazy: true}, discreteRunner(core.SequentialInto)},
		{"lazy-parallel", core.Options{Lazy: true}, discreteRunner(core.ParallelInto)},
		{"lazy-uniform", core.Options{Lazy: true}, discreteRunner(core.UniformInto)},
		{"lazy-ct-uniform", core.Options{Lazy: true}, ctRunner(core.CTUniformInto)},
		{"lazy-ct-sequential", core.Options{Lazy: true}, ctRunner(core.CTSequentialInto)},
	}
	optionSets := []struct {
		name  string
		opts  []dispersion.Option
		apply func(*core.Options)
	}{
		{"default", nil, func(*core.Options) {}},
		{"record", []dispersion.Option{dispersion.WithRecord()},
			func(o *core.Options) { o.Record = true }},
		{"lazy", []dispersion.Option{dispersion.WithLazy()},
			func(o *core.Options) { o.Lazy = true }},
		{"particles", []dispersion.Option{dispersion.WithParticles(n / 2)},
			func(o *core.Options) { o.Particles = n / 2 }},
		{"random-origins", []dispersion.Option{dispersion.WithRandomOrigins()},
			func(o *core.Options) { o.RandomOrigins = true }},
		{"max-steps", []dispersion.Option{dispersion.WithMaxSteps(64), dispersion.WithRecord()},
			func(o *core.Options) { o.MaxSteps = 64; o.Record = true }},
		{"random-priority", []dispersion.Option{dispersion.WithRandomPriority()},
			func(o *core.Options) { o.RandomPriority = true }},
		{"settle-rule", []dispersion.Option{dispersion.WithSettleRule(rule)},
			func(o *core.Options) { o.Rule = rule }},
		{"combined", []dispersion.Option{
			dispersion.WithRecord(), dispersion.WithParticles(n / 4),
			dispersion.WithRandomOrigins(), dispersion.WithLazy(),
		}, func(o *core.Options) {
			o.Record = true
			o.Particles = n / 4
			o.RandomOrigins = true
			o.Lazy = true
		}},
	}

	for _, pc := range processes {
		p, err := dispersion.Lookup(pc.name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", pc.name, err)
		}
		for _, oc := range optionSets {
			t.Run(pc.name+"/"+oc.name, func(t *testing.T) {
				const seed = 12345
				got, err := p.Run(g, 0, dispersion.NewSource(seed), oc.opts...)
				if err != nil {
					t.Fatalf("facade run: %v", err)
				}
				opt := pc.opt
				oc.apply(&opt)
				want, wantCT, err := pc.run(g, 0, opt, rng.New(seed))
				if err != nil {
					t.Fatalf("core run: %v", err)
				}

				if got.Process != pc.name {
					t.Errorf("Process = %q, want %q", got.Process, pc.name)
				}
				if got.Continuous != (wantCT != nil) {
					t.Errorf("Continuous = %v, want %v", got.Continuous, wantCT != nil)
				}
				checkField(t, "Dispersion", got.Dispersion, want.Dispersion)
				checkField(t, "TotalSteps", got.TotalSteps, want.TotalSteps)
				checkField(t, "Steps", got.Steps, want.Steps)
				checkField(t, "SettledAt", got.SettledAt, want.SettledAt)
				checkField(t, "SettleOrder", got.SettleOrder, want.SettleOrder)
				checkField(t, "SettleClock", got.SettleClock, want.SettleClock)
				checkField(t, "Trajectories", got.Trajectories, want.Trajectories)
				checkField(t, "Truncated", got.Truncated, want.Truncated)
				if wantCT != nil {
					checkField(t, "Time", got.Time, wantCT.Time)
					checkField(t, "SettleTimes", got.SettleTimes, wantCT.SettleTimes)
					if got.Makespan() != wantCT.Time {
						t.Errorf("Makespan() = %v, want %v", got.Makespan(), wantCT.Time)
					}
				} else if got.Makespan() != float64(want.Dispersion) {
					t.Errorf("Makespan() = %v, want %v", got.Makespan(), float64(want.Dispersion))
				}
				if !got.Truncated {
					if err := got.Check(g); err != nil {
						t.Errorf("Check: %v", err)
					}
				}
			})
		}
	}
}

func checkField(t *testing.T, name string, got, want any) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

func TestLookupAliases(t *testing.T) {
	for alias, canonical := range map[string]string{
		"seq": "sequential", "par": "parallel", "unif": "uniform",
		"ctu": "ct-uniform", "ctseq": "ct-sequential",
		"lazy-seq": "lazy-sequential", "lazy-ctu": "lazy-ct-uniform",
		"geom": "sequential-geom", "thresh": "sequential-threshold",
		"cap": "capacity", "cap-par": "capacity-parallel",
		"lazy-geom": "lazy-sequential-geom", "lazy-cap": "lazy-capacity",
	} {
		p, err := dispersion.Lookup(alias)
		if err != nil {
			t.Errorf("Lookup(%q): %v", alias, err)
			continue
		}
		if p.Name() != canonical {
			t.Errorf("Lookup(%q).Name() = %q, want %q", alias, p.Name(), canonical)
		}
	}
	if _, err := dispersion.Lookup("bogus"); err == nil {
		t.Error("Lookup(bogus) succeeded")
	}
}

func TestProcessesRegistry(t *testing.T) {
	names := dispersion.Processes()
	want := []string{
		"capacity", "capacity-parallel", "ct-sequential", "ct-uniform",
		"lazy-capacity", "lazy-capacity-parallel",
		"lazy-ct-sequential", "lazy-ct-uniform",
		"lazy-parallel", "lazy-sequential",
		"lazy-sequential-geom", "lazy-sequential-threshold", "lazy-uniform",
		"parallel", "sequential",
		"sequential-geom", "sequential-threshold", "uniform",
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("Processes() = %v, want %v", names, want)
	}
	for _, name := range names {
		p, err := dispersion.Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		wantCT := name == "ct-uniform" || name == "ct-sequential" ||
			name == "lazy-ct-uniform" || name == "lazy-ct-sequential"
		if p.Continuous() != wantCT {
			t.Errorf("%s: Continuous() = %v, want %v", name, p.Continuous(), wantCT)
		}
	}
}

// TestRunConvenience checks the one-shot Run against an explicit
// Lookup + Process.Run with the same seed.
func TestRunConvenience(t *testing.T) {
	g := graph.Complete(32)
	a, err := dispersion.Run("parallel", g, 0, 7, dispersion.WithRecord())
	if err != nil {
		t.Fatal(err)
	}
	p, _ := dispersion.Lookup("parallel")
	b, err := p.Run(g, 0, dispersion.NewSource(7), dispersion.WithRecord())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("Run and Lookup+Process.Run disagree under the same seed")
	}
}

func TestRunErrors(t *testing.T) {
	g := graph.Complete(8)
	if _, err := dispersion.Run("bogus", g, 0, 1); err == nil {
		t.Error("unknown process accepted")
	}
	if _, err := dispersion.Run("sequential", g, 99, 1); err == nil {
		t.Error("out-of-range origin accepted")
	}
	if _, err := dispersion.Run("sequential", g, 0, 1, dispersion.WithParticles(9)); err == nil {
		t.Error("k > n particles accepted")
	}
}

// TestOdometerFacade checks the re-exported odometer against the internal
// one on the same recorded run.
func TestOdometerFacade(t *testing.T) {
	g := graph.Cycle(16)
	res, err := dispersion.Run("sequential", g, 0, 3, dispersion.WithRecord())
	if err != nil {
		t.Fatal(err)
	}
	o, err := dispersion.NewOdometer(g, res)
	if err != nil {
		t.Fatal(err)
	}
	if o.Total() != res.TotalSteps+int64(g.N()) {
		t.Errorf("odometer total %d != steps %d + placements %d",
			o.Total(), res.TotalSteps, g.N())
	}
}
