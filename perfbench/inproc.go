package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"dispersion"
	"dispersion/graphspec"
	"dispersion/internal/core"
	"dispersion/internal/graph"
	"dispersion/internal/rng"
	"dispersion/internal/walk"
	"dispersion/server"
)

// zeroLayer starts the per-layer metrics at 0, the reading of a layer the
// workload does not exercise.
func zeroLayer() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

// jobSeed derives a job's engine seed from the workload seed, so the same
// workload seed replays the same inputs.
func jobSeed(seed uint64, ids ...uint64) uint64 {
	return rng.New(seed).SplitSeed(ids...)
}

// buildGraphs parses and builds the graph of every config (once per
// distinct spec), with a graphspec span around each build.
func buildGraphs(jobs []jobDef, seed uint64, tr *tracer, parent int) ([]dispersion.Graph, error) {
	bySpec := map[string]dispersion.Graph{}
	out := make([]dispersion.Graph, len(jobs))
	for i, d := range jobs {
		g, ok := bySpec[d.Req.Spec]
		if !ok {
			sp := tr.begin(0, parent, "graphspec", "graphspec.build")
			var err error
			g, err = graphspec.Build(d.Req.Spec, seed)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("build %s: %w", d.Req.Spec, err)
			}
			bySpec[d.Req.Spec] = g
		}
		out[i] = g
	}
	return out, nil
}

// cycleOrder interleaves the configs by weight: one cycle runs config i
// Weight times, spread across the cycle rather than back to back.
func cycleOrder(jobs []jobDef) []int {
	var order []int
	for round := 0; ; round++ {
		added := false
		for i, d := range jobs {
			if round < max(d.Weight, 1) {
				order = append(order, i)
				added = true
			}
		}
		if !added {
			return order
		}
	}
}

// capture keeps the engine coordinates and the tail trials of one job of
// a config, for the re-run check.
type capture struct {
	seed, experiment uint64
	first            int
	trials           [][]byte // JSON of trials [first, Req.Trials)
}

// captureTrials is how many tail trials of a config's first job the
// re-run check recomputes.
const captureTrials = 4

// inprocRun carries one workload run's state across its phases.
type inprocRun struct {
	w      workload
	rc     runConfig
	graphs []dispersion.Graph
	opts   [][]dispersion.Option
	acc    []moments
	caps   []*capture
	tally  *tally
	jobNo  int64
	notes  []string
}

func runInproc(ctx context.Context, w workload, rc runConfig, tr *tracer) (*result, error) {
	r := &inprocRun{w: w, rc: rc, acc: make([]moments, len(w.Jobs)), caps: make([]*capture, len(w.Jobs)), tally: &tally{}}
	for _, d := range w.Jobs {
		r.opts = append(r.opts, d.Req.Options.Build())
	}
	res := &result{e2e: map[string]float64{}, layer: zeroLayer(), tally: r.tally}

	// Set-up: everything before the first trial can start — parsing and
	// building every graph of the workload. Collect garbage between
	// repetitions so earlier copies do not inflate the peak resident set.
	// The build runs on one goroutine, but the collector's workers keep
	// the other CPUs busy during large builds, so stolen time is shared
	// over all of them as in the timed phase.
	setups := make([]float64, 0, w.SetupReps)
	for i := 0; i < w.SetupReps; i++ {
		r.graphs = nil
		runtime.GC()
		t0 := time.Now()
		gs, err := buildGraphs(w.Jobs, rc.seed, nil, 0)
		setups = append(setups, rc.smp.net(t0, time.Since(t0), rc.nproc).Seconds())
		if err != nil {
			return nil, err
		}
		r.graphs = gs
	}
	res.e2e["setup_s"] = median(setups)

	untracedS, tracedS := rc.phaseSeconds()
	p := r.timed(ctx, untracedS, w.RSSJobs, nil, 0)
	for k, v := range p.endToEnd(rc.smp, rc.nproc, func(s string) { res.notes = append(res.notes, s) }) {
		res.e2e[k] = v
	}
	for i, d := range w.Jobs {
		res.notes = append(res.notes, fmt.Sprintf("time share %5.1f%% %s", 100*p.busy[i]/p.elapsed.Seconds(), d.label()))
	}
	if rc.trace {
		if err := r.traced(ctx, tracedS, tr, res); err != nil {
			return nil, err
		}
	}
	r.checks(ctx)
	res.notes = append(res.notes, r.notes...)
	return res, nil
}

// timed runs whole cycles of the workload's jobs until seconds have
// passed and at least rssJobs jobs have run (at least one cycle), and
// reports what reached the caller.
func (r *inprocRun) timed(ctx context.Context, seconds float64, rssJobs int, tr *tracer, tag uint64) *phase {
	order := cycleOrder(r.w.Jobs)
	p := &phase{busy: make([]float64, len(r.w.Jobs)), rssJobs: rssJobs}
	debug.FreeOSMemory()
	limit := time.Duration(seconds * float64(time.Second))
	start, cpu0, st0 := time.Now(), cpuTime(), stolenTime()
	p.start = start
	for cycle := 0; cycle == 0 || time.Since(start) < limit || cycle*len(order) < rssJobs; cycle++ {
		for _, i := range order {
			r.job(ctx, i, p, tr, tag)
		}
	}
	p.elapsed = time.Since(start)
	p.cpu, p.stolen = cpuTime()-cpu0, stolenTime()-st0
	return p
}

// job runs one Engine.Run of config i and folds its trials into the
// phase and the config's statistics; a failed run counts in the tally.
func (r *inprocRun) job(ctx context.Context, i int, p *phase, tr *tracer, tag uint64) {
	d := r.w.Jobs[i]
	r.jobNo++
	eng := dispersion.Engine{Seed: jobSeed(r.rc.seed, tag, uint64(r.jobNo)), Experiment: uint64(i), ReuseResults: true}
	job := dispersion.Job{Process: d.Req.Process, Graph: r.graphs[i], Trials: d.Req.Trials, Options: r.opts[i]}
	cp := r.caps[i]
	if cp == nil {
		cp = &capture{seed: eng.Seed, experiment: eng.Experiment, first: max(0, d.Req.Trials-captureTrials)}
		r.caps[i] = cp
	} else {
		cp = nil
	}
	root := tr.begin(r.jobNo, 0, "bench", "job")
	sp := tr.begin(r.jobNo, root, "engine", "engine.run")
	t0 := time.Now()
	first := time.Duration(-1)
	var trials, steps int64
	err := eng.Run(ctx, job, func(t dispersion.Trial) error {
		if first < 0 {
			first = time.Since(t0)
		}
		trials++
		steps += t.Result.TotalSteps
		r.acc[i].add(float64(t.Result.TotalSteps))
		if cp != nil && t.Index >= cp.first {
			b, err := json.Marshal(t.Result)
			if err != nil {
				return err
			}
			cp.trials = append(cp.trials, b)
		}
		return nil
	})
	lat := time.Since(t0)
	tr.end(sp)
	tr.end(root)
	if err == nil && trials != int64(d.Req.Trials) {
		err = fmt.Errorf("%s delivered %d of %d trials", d.label(), trials, d.Req.Trials)
	}
	r.tally.op(err)
	if err != nil {
		return
	}
	p.jobs++
	p.trials += trials
	p.steps += steps
	if d.Req.Options.Batch > 0 {
		p.laneTrials += trials
	}
	p.timings = append(p.timings, jobTiming{group: i, start: t0, latency: lat, first: first})
	p.busy[i] += lat.Seconds()
}

// traced is the traced half of a --trace 1 run: a traced set-up, a traced
// timed phase, and the engine-against-core probes.
func (r *inprocRun) traced(ctx context.Context, seconds float64, tr *tracer, res *result) error {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	root := tr.begin(0, 0, "bench", "setup")
	if _, err := buildGraphs(r.w.Jobs, r.rc.seed, tr, root); err != nil {
		return err
	}
	tr.end(root)
	runtime.ReadMemStats(&after)
	builds, meanBuild := nameStats(tr.snapshot(), "graphspec.build")
	res.layer["graphspec.builds"] = float64(builds)
	res.layer["graphspec.build_s"] = meanBuild * float64(builds)
	res.layer["graphspec.build_alloc_mib"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)

	p := r.timed(ctx, seconds, 0, tr, 1)
	traceOverhead(res.layer, res.e2e, p.endToEnd(r.rc.smp, r.rc.nproc, func(string) {}))
	_, res.layer["engine.run_s"] = nameStats(tr.snapshot(), "engine.run")
	res.layer["engine.trials"] = float64(p.trials)
	res.layer["core.steps"] = float64(p.steps)
	res.layer["lane.trials"] = float64(p.laneTrials)
	return r.probes(ctx, tr, res)
}

// trialDigest identifies one trial's outcome for the engine-against-core
// comparison: its step counts and a hash of its per-particle arrays.
type trialDigest struct {
	total, dispersion int64
	hash              uint64
}

func digest(full bool, total, disp int64, steps []int64, settled []int32) trialDigest {
	if !full {
		return trialDigest{total: total, dispersion: disp}
	}
	h := fnv.New64a()
	var b [8]byte
	for _, s := range steps {
		for k := range b {
			b[k] = byte(uint64(s) >> (8 * k))
		}
		h.Write(b[:])
	}
	for _, v := range settled {
		h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
	}
	return trialDigest{total, disp, h.Sum64()}
}

// coreInto resolves a process name to the core loop Engine.Run drives for
// it on the scalar path.
func coreInto(process string) (func(graph.Graph, int, core.Options, *rng.Source, *core.Scratch, *core.CTResult) error, error) {
	discrete := func(f func(graph.Graph, int, core.Options, *rng.Source, *core.Scratch, *core.Result) error) func(graph.Graph, int, core.Options, *rng.Source, *core.Scratch, *core.CTResult) error {
		return func(g graph.Graph, o int, opt core.Options, r *rng.Source, s *core.Scratch, ct *core.CTResult) error {
			return f(g, o, opt, r, s, &ct.Result)
		}
	}
	switch process {
	case "sequential":
		return discrete(core.SequentialInto), nil
	case "parallel":
		return discrete(core.ParallelInto), nil
	case "ct-uniform":
		return core.CTUniformInto, nil
	}
	return nil, fmt.Errorf("no direct core loop for process %q", process)
}

// coreOptions mirrors server.Options.Build for the internal options
// struct the core loops take.
func coreOptions(o server.Options) core.Options {
	return core.Options{
		Lazy: o.Lazy, Record: o.Record, Particles: o.Particles, RandomOrigins: o.RandomOrigins,
		MaxSteps: o.MaxSteps, RandomPriority: o.RandomPriority, SettleParam: o.SettleParam,
		Capacity: o.Capacity, Capacities: o.Capacities, Batch: o.Batch,
	}
}

// viaEngine runs trials [0, n) of config i through Engine.Run on one
// worker and returns each trial's digest: its step counts only, or with
// full also the per-particle hash (kept out of timed runs, where the
// engine would hash on its collector goroutine in parallel with the
// walks while the direct loop hashes inline).
func (r *inprocRun) viaEngine(ctx context.Context, i int, seed uint64, full bool, tr *tracer) ([]trialDigest, time.Duration, error) {
	d := r.w.Jobs[i]
	eng := dispersion.Engine{Seed: seed, Experiment: uint64(i), Workers: 1, ReuseResults: true}
	job := dispersion.Job{Process: d.Req.Process, Graph: r.graphs[i], Trials: d.Req.Trials, Options: r.opts[i]}
	out := make([]trialDigest, 0, d.Req.Trials)
	sp := tr.begin(0, 0, "engine", "engine.probe")
	t0 := time.Now()
	err := eng.Run(ctx, job, func(t dispersion.Trial) error {
		out = append(out, digest(full, t.Result.TotalSteps, t.Result.Dispersion, t.Result.Steps, t.Result.SettledAt))
		return nil
	})
	el := time.Since(t0)
	tr.end(sp)
	return out, el, err
}

// viaCore runs the same trials by calling the core loop directly, seeding
// trial t from walk.Runner.TrialSeed as the engine does: the scalar loop
// per trial, or core.RunLane per block of Batch trials.
func (r *inprocRun) viaCore(i int, seed uint64, full bool, tr *tracer) ([]trialDigest, time.Duration, int64, error) {
	d := r.w.Jobs[i]
	g, n := r.graphs[i], d.Req.Trials
	opt := coreOptions(d.Req.Options)
	rn := walk.NewRunner(seed, uint64(i))
	s := core.NewScratch()
	out := make([]trialDigest, 0, n)
	var steps int64
	if opt.Batch > 0 {
		if d.Req.Process != "sequential" {
			return nil, 0, 0, fmt.Errorf("no direct lane loop for process %q", d.Req.Process)
		}
		res := make([]core.Result, opt.Batch)
		ptrs := make([]*core.Result, opt.Batch)
		seeds := make([]uint64, opt.Batch)
		sp := tr.begin(0, 0, "lane", "lane.direct")
		t0 := time.Now()
		for lo := 0; lo < n; lo += opt.Batch {
			cnt := min(opt.Batch, n-lo)
			for t := 0; t < cnt; t++ {
				seeds[t] = rn.TrialSeed(lo + t)
				ptrs[t] = &res[t]
			}
			if err := core.RunLane(g, 0, opt, core.LaneStandard, seeds[:cnt], s, ptrs[:cnt]); err != nil {
				return nil, 0, 0, err
			}
			for t := 0; t < cnt; t++ {
				steps += res[t].TotalSteps
				out = append(out, digest(full, res[t].TotalSteps, res[t].Dispersion, res[t].Steps, res[t].SettledAt))
			}
		}
		el := time.Since(t0)
		tr.end(sp)
		return out, el, steps, nil
	}
	into, err := coreInto(d.Req.Process)
	if err != nil {
		return nil, 0, 0, err
	}
	var src rng.Source
	var ct core.CTResult
	sp := tr.begin(0, 0, "core", "core.direct")
	t0 := time.Now()
	for t := 0; t < n; t++ {
		src.Seed(rn.TrialSeed(t))
		if err := into(g, 0, opt, &src, s, &ct); err != nil {
			return nil, 0, 0, err
		}
		steps += ct.TotalSteps
		out = append(out, digest(full, ct.TotalSteps, ct.Dispersion, ct.Steps, ct.SettledAt))
	}
	el := time.Since(t0)
	tr.end(sp)
	return out, el, steps, nil
}

// overheadMaxTrial bounds the trials engine.overhead_ns_per_trial pools:
// against longer trials the timing noise of the two runs swamps a
// per-trial overhead of a few µs. Memory-workload trials (tens of ms) all
// fall outside, and the metric reads 0 there.
const overheadMaxTrial = time.Millisecond

// probes times each probed config twice on one worker — through
// Engine.Run and through the direct core loop on the same trial seeds —
// checks that both give identical trials (runCore's contract), and
// reports the engine's overhead per trial and the core's cost per step.
func (r *inprocRun) probes(ctx context.Context, tr *tracer, res *result) error {
	var overheadNs float64
	var overheadTrials int
	for i, d := range r.w.Jobs {
		if !d.Probe {
			continue
		}
		seed := jobSeed(r.rc.seed, 2, uint64(i))
		e, _, err := r.viaEngine(ctx, i, seed, true, nil)
		if err != nil {
			return fmt.Errorf("probe %s: %w", d.label(), err)
		}
		c, _, _, err := r.viaCore(i, seed, true, nil)
		if err != nil {
			return fmt.Errorf("probe %s: %w", d.label(), err)
		}
		r.tally.check(slices.Equal(e, c), d.label()+": Engine.Run and the direct core loop disagree on the same trial seeds")
		var engT, coreT time.Duration
		var steps int64
		for rep := 0; rep < r.w.ProbeReps; rep++ {
			// Alternate which side runs first, so warm caches favour neither.
			var et, ct time.Duration
			var st int64
			var err error
			if rep%2 == 0 {
				if _, et, err = r.viaEngine(ctx, i, seed, false, tr); err == nil {
					_, ct, st, err = r.viaCore(i, seed, false, tr)
				}
			} else {
				if _, ct, st, err = r.viaCore(i, seed, false, tr); err == nil {
					_, et, err = r.viaEngine(ctx, i, seed, false, tr)
				}
			}
			if err != nil {
				return fmt.Errorf("probe %s: %w", d.label(), err)
			}
			engT += et
			coreT += ct
			steps += st
		}
		nsPerStep := float64(coreT.Nanoseconds()) / float64(steps)
		if d.Req.Options.Batch > 0 {
			res.layer["lane.ns_per_step."+d.Family] = nsPerStep
			continue
		}
		if d.Family != "" && res.layer["core.ns_per_step."+d.Family] == 0 {
			res.layer["core.ns_per_step."+d.Family] = nsPerStep
		}
		trials := d.Req.Trials * r.w.ProbeReps
		if coreT/time.Duration(trials) < overheadMaxTrial {
			overheadNs += float64((engT - coreT).Nanoseconds())
			overheadTrials += trials
		}
	}
	if overheadTrials > 0 {
		res.layer["engine.overhead_ns_per_trial"] = overheadNs / float64(overheadTrials)
	}
	return nil
}

// checks verifies the run's outputs: every config's mean total steps
// against its closed form and its twins (within maxZ standard errors),
// and a re-run of each config's first job on one worker, over its tail
// trials only, against the trials the timed run delivered.
func (r *inprocRun) checks(ctx context.Context) {
	twin := map[string]int{}
	for i, d := range r.w.Jobs {
		if r.acc[i].n < minSample {
			r.notes = append(r.notes, fmt.Sprintf("%s: %d trials are too few for the statistical checks", d.label(), r.acc[i].n))
			continue
		}
		if d.Exact > 0 {
			ok, msg := meanMatches(r.acc[i], d.Exact)
			r.tally.check(ok, d.label()+" total steps: "+msg)
		}
		if d.Twin == "" {
			continue
		}
		if j, seen := twin[d.Twin]; seen {
			ok, msg := meansAgree(r.acc[j], r.acc[i])
			r.tally.check(ok, r.w.Jobs[j].label()+" against "+d.label()+" total steps: "+msg)
		} else {
			twin[d.Twin] = i
		}
	}
	for i, cp := range r.caps {
		if cp == nil {
			continue
		}
		d := r.w.Jobs[i]
		eng := dispersion.Engine{Seed: cp.seed, Experiment: cp.experiment, Workers: 1}
		job := dispersion.Job{Process: d.Req.Process, Graph: r.graphs[i], FirstTrial: cp.first, Trials: d.Req.Trials - cp.first, Options: r.opts[i]}
		var got [][]byte
		err := eng.Run(ctx, job, func(t dispersion.Trial) error {
			b, err := json.Marshal(t.Result)
			got = append(got, b)
			return err
		})
		same := err == nil && slices.EqualFunc(got, cp.trials, bytes.Equal)
		r.tally.check(same, fmt.Sprintf("%s: trials [%d,%d) re-run on one worker differ from the timed run (%v)", d.label(), cp.first, d.Req.Trials, err))
	}
}
