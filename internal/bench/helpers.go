package bench

import (
	"context"
	"fmt"

	"dispersion"
	"dispersion/internal/graph"
	"dispersion/internal/rng"
	"dispersion/internal/stats"
	"dispersion/internal/walk"
)

// SampleDispersion runs trials independent realizations of the registered
// process (e.g. "sequential", "ct-uniform") through dispersion.Engine and
// returns each trial's dispersion time on its natural scale: real time
// for the continuous-time processes. Trials run across all cores but are
// deterministic in (seed, expID, trial).
func SampleDispersion(g graph.Graph, origin int, process string, trials int,
	seed, expID uint64, opts ...dispersion.Option) []float64 {
	xs, err := engine(seed, expID).Sample(context.Background(), job(g, origin, process, trials, opts))
	must(err)
	return xs
}

// SampleTotalSteps is SampleDispersion returning the total number of jumps
// of all particles per trial.
func SampleTotalSteps(g graph.Graph, origin int, process string, trials int,
	seed, expID uint64, opts ...dispersion.Option) []float64 {
	xs, err := engine(seed, expID).TotalSteps(context.Background(), job(g, origin, process, trials, opts))
	must(err)
	return xs
}

// MeanDispersion is SampleDispersion reduced to a Summary.
func MeanDispersion(g graph.Graph, origin int, process string, trials int,
	seed, expID uint64, opts ...dispersion.Option) stats.Summary {
	return stats.Summarize(SampleDispersion(g, origin, process, trials, seed, expID, opts...))
}

// eachTrial runs trials like SampleDispersion and hands every Result to fn
// in trial order. The Result is recycled once fn returns.
func eachTrial(g graph.Graph, origin int, process string, trials int,
	seed, expID uint64, fn func(*dispersion.Result), opts ...dispersion.Option) {
	eng := engine(seed, expID)
	eng.ReuseResults = true
	must(eng.Run(context.Background(), job(g, origin, process, trials, opts),
		func(t dispersion.Trial) error { fn(t.Result); return nil }))
}

// engine roots trial i of an experiment at the split stream (seed, expID, i).
func engine(seed, expID uint64) dispersion.Engine {
	return dispersion.Engine{Seed: seed, Experiment: expID}
}

// job is the Engine job of trials realizations of the registered process
// on g from origin.
func job(g graph.Graph, origin int, process string, trials int, opts []dispersion.Option) dispersion.Job {
	return dispersion.Job{Process: process, Graph: g, Origin: origin, Trials: trials, Options: opts}
}

// SampleCoverTime estimates the cover time of the simple random walk from
// the origin.
func SampleCoverTime(g *graph.CSR, origin int, trials int, seed, expID uint64) stats.Summary {
	rn := walk.NewRunner(seed, expID)
	xs := rn.Run(trials, func(_ int, r *rng.Source) float64 {
		steps, ok := walk.CoverTime(g, origin, 1<<40, r)
		if !ok {
			panic("bench: cover walk capped")
		}
		return float64(steps)
	})
	return stats.Summarize(xs)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// fm formats a float compactly for tables.
func fm(x float64) string {
	switch {
	case x == 0:
		return "0"
	case x >= 1e6 || x < 1e-3:
		return fmt.Sprintf("%.3g", x)
	case x >= 100:
		return fmt.Sprintf("%.0f", x)
	case x >= 1:
		return fmt.Sprintf("%.2f", x)
	default:
		return fmt.Sprintf("%.3f", x)
	}
}

// within reports |got-want| <= tol·want.
func within(got, want, tol float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol*want
}
