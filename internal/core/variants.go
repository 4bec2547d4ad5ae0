// This file holds the settle laws of the Sequential family: the standard
// rule (with an optional Options.Rule veto), the Proposition A.1 modified
// rules (geometric acceptance and step-threshold settlement), and the
// capacity-c generalization where every vertex hosts up to c particles.
// A law decides only what a particle standing on a vacant vertex does, so
// every Sequential-family process runs through the one particle loop
// sequentialInto, and both capacity processes through the shared loops
// with the capacity law. The registered variants' *Into forms are thin law
// resolvers.

package core

import (
	"fmt"
	"math"

	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

// geomParam resolves Options.SettleParam as SequentialGeomInto's per-visit
// settle probability q. Zero means the default 1/2; q = 1 recovers the
// standard rule.
func (o *Options) geomParam() (float64, error) {
	q := o.SettleParam
	if q == 0 {
		q = 0.5
	}
	// The negated form also rejects NaN, which would otherwise make the
	// acceptance coin unwinnable and the walk endless.
	if !(q > 0 && q <= 1) {
		return 0, fmt.Errorf("core: geometric settle probability %v (want (0,1])", q)
	}
	return q, nil
}

// thresholdParam resolves Options.SettleParam as SequentialThresholdInto's
// minimum step count T, truncating the fractional part. Zero means the
// default n, the graph size. A SettleParam in (0,1) truncates to T = 0,
// which is the standard rule.
func (o *Options) thresholdParam(n int) (int64, error) {
	if o.SettleParam == 0 {
		return int64(n), nil
	}
	// The negated range check rejects NaN (whose int64 conversion is
	// platform-defined) and an infinite or absurd threshold that could
	// never finish its forced walk.
	if !(o.SettleParam > 0 && o.SettleParam <= math.MaxInt32) {
		return 0, fmt.Errorf("core: settle threshold %v (want (0,%d]; 0 selects the default n)",
			o.SettleParam, math.MaxInt32)
	}
	return int64(o.SettleParam), nil
}

// settleLaw is the resolved settle law of a run: whether a particle
// standing on a vacant vertex settles there, and what settling does to the
// vertex.
type settleLaw struct {
	variant LaneVariant
	// open marks a law that settles a particle on every vacant standing
	// (the standard rule without a veto, and capacity), so the hot loop
	// skips the call to owed.
	open bool
	rule SettleRule // LaneStandard: Options.Rule; nil settles at once
	q    float64    // LaneGeom: per-visit acceptance probability
	T    int64      // LaneThreshold: first step a particle may settle on
	plan capPlan    // LaneCapacity: per-vertex capacities
}

// settleLaw resolves the particle count of a run on n vertices and the
// settle law of variant, checking the options it reads.
func (o *Options) settleLaw(n int, variant LaneVariant) (k int, law settleLaw, err error) {
	law.variant = variant
	switch variant {
	case LaneStandard:
		k, err = o.numParticles(n)
		law.rule, law.open = o.Rule, o.Rule == nil
	case LaneGeom:
		if k, err = o.numParticles(n); err == nil {
			law.q, err = o.geomParam()
		}
	case LaneThreshold:
		if k, err = o.numParticles(n); err == nil {
			law.T, err = o.thresholdParam(n)
		}
	case LaneCapacity:
		law.open = true
		if law.plan, err = o.capacityPlan(n); err == nil {
			k, err = o.numParticlesCap(n, law.plan)
		}
	default:
		// Only RunLane passes a caller's variant; the scalar loops pass
		// their own.
		err = fmt.Errorf("core: process has no batched form")
	}
	return k, law, err
}

// owed returns the number of forced moves a particle standing on the
// vacant vertex v after steps steps takes before it walks on; zero settles
// it on v. Only the geometric law draws randomness: one coin per vacant
// standing. The threshold law owes all the moves left below T at once: no
// standing before step T can end the walk, so one step loop over them
// draws exactly what one forced move per vacant standing would.
func (l *settleLaw) owed(v int32, steps int64, r *rng.Source) int64 {
	switch l.variant {
	case LaneGeom:
		if r.Float64() < l.q {
			return 0
		}
		return 1
	case LaneThreshold:
		return max(l.T-steps, 0)
	}
	if l.rule == nil || l.rule(v, steps) {
		return 0
	}
	return 1
}

// occupy settles one particle on v. The capacity law counts it and marks v
// occupied once v holds its capacity, so every walk and settle test reads
// the same occupancy map under every law.
func (l *settleLaw) occupy(s *Scratch, v int32) {
	if l.variant != LaneCapacity {
		s.occupy(v)
		return
	}
	c := s.count(v) + 1
	s.setCount(v, c)
	if int(c) == l.plan.at(v) {
		s.occupy(v)
	}
}

// SequentialGeomInto runs the Sequential process under the geometric
// settle rule of Proposition A.1: a particle standing on a vacant vertex
// settles there with probability q per visit (Options.SettleParam, default
// 1/2) and otherwise keeps walking. q = 1 recovers the standard process.
func SequentialGeomInto(g graph.Graph, origin int, opt Options, r *rng.Source, s *Scratch, res *Result) error {
	return sequentialInto(g, origin, &opt, LaneGeom, r, s, res)
}

// SequentialThresholdInto runs the Sequential process under the
// step-threshold settle rule of Proposition A.1: a particle may settle only
// from its T-th step on (Options.SettleParam, default n), at the first
// vacant vertex it then stands on. Longer forced walks can decrease the
// dispersion time on gadgets like the clique-with-hair — the paper's
// no-least-action example.
func SequentialThresholdInto(g graph.Graph, origin int, opt Options, r *rng.Source, s *Scratch, res *Result) error {
	return sequentialInto(g, origin, &opt, LaneThreshold, r, s, res)
}

// CapacitySequentialInto runs the capacity-c Sequential process: the
// k-particles-per-vertex load-balancing generalization where every vertex
// hosts up to c settled particles (Options.Capacity, default
// DefaultCapacity) and a particle settles on the first standing vertex
// holding fewer than c. By default c·n particles disperse, filling every
// vertex to capacity; Options.Particles lowers the count.
func CapacitySequentialInto(g graph.Graph, origin int, opt Options, r *rng.Source, s *Scratch, res *Result) error {
	return sequentialInto(g, origin, &opt, LaneCapacity, r, s, res)
}

// CapacityParallelInto runs the capacity-c Parallel process: all
// particles start together, every round all unsettled particles move
// simultaneously, and settlement resolution in priority order lets each
// vertex accept arrivals until it holds c settled particles
// (Options.Capacity, default DefaultCapacity). Priority is least index, or
// a uniform permutation under Options.RandomPriority.
func CapacityParallelInto(g graph.Graph, origin int, opt Options, r *rng.Source, s *Scratch, res *Result) error {
	return parallelInto(g, origin, &opt, LaneCapacity, r, s, res)
}
