package main

import (
	"fmt"

	"dispersion/server"
)

// jobDef is one in-process configuration of a workload, expressed as the
// server's JobRequest JSON form (process, spec, trials, options) so it
// means exactly what the same job submitted over HTTP means. Seed and
// Experiment are filled in per job.
type jobDef struct {
	// Family labels the core.ns_per_step.<Family> metric (for a batched
	// config, lane.ns_per_step.<Family>) that the config's probe
	// reports; empty reports none.
	Family string
	Req    server.JobRequest
	// Weight is how many jobs of this config one cycle of the workload
	// runs; 0 means 1.
	Weight int
	// Exact is the closed-form E[TotalSteps], or 0 where none is known.
	Exact float64
	// Twin groups configs whose TotalSteps must share one distribution
	// (Theorem 4.1 for sequential and parallel; the batched lane for the
	// scalar path). Empty means no twin.
	Twin string
	// Probe marks a config the traced run times twice, through
	// Engine.Run and through the direct core loop.
	Probe bool
}

func (d jobDef) label() string {
	s := d.Req.Process + "@" + d.Req.Spec
	if d.Req.Options.Particles > 0 {
		s += fmt.Sprintf(",particles=%d", d.Req.Options.Particles)
	}
	if d.Req.Options.Batch > 0 {
		s += fmt.Sprintf(",batch=%d", d.Req.Options.Batch)
	}
	return s
}

// workload is one set of inputs the benchmark runs. Why records the
// reason it was chosen; it is the same sentence BENCHMARK.json carries.
type workload struct {
	Name string
	Why  string
	// Jobs are the in-process configurations; empty for service.
	Jobs []jobDef
	// SetupReps is how many times one run repeats its set-up; setup_s is
	// the median.
	SetupReps int
	// ProbeReps is how many times the traced run repeats each
	// engine-against-direct-core timing.
	ProbeReps int
	// RSSJobs is the number of completed jobs peak_rss_mib is read over,
	// from the start of the untraced phase, which runs at least that
	// long. The Go heap grows between collections and goes back to the
	// OS slowly, so over a fixed time the peak rises with the number of
	// jobs that fit in it — a faster program would read as a larger one;
	// over a fixed number of jobs it depends on the work alone.
	RSSJobs int
}

// completeTotalSteps is E[TotalSteps] of k particles dispersing on the
// clique K_n from one origin. With j vertices occupied, every jump of an
// unsettled particle leaves an occupied vertex for a uniform one of the
// other n-1, of which n-j are vacant: each settlement costs a
// Geometric((n-j)/(n-1)) number of jumps whatever order particles move
// in. So the law is the same for the sequential, parallel and
// continuous-time processes (the coupon collector: (n-1)·H_{n-1} for
// k = n).
func completeTotalSteps(n, k int) float64 {
	var s float64
	for j := 1; j < k; j++ {
		s += float64(n-1) / float64(n-j)
	}
	return s
}

func req(process, spec string, trials int, opt server.Options) server.JobRequest {
	return server.JobRequest{Process: process, Spec: spec, Trials: trials, Options: opt}
}

// kernelsWorkload: every Table-1 family at a cache-resident size. Trial
// counts give each config a job of roughly equal duration. peak_rss_mib
// covers 100 cycles, about 13 s.
func kernelsWorkload(tiny bool) workload {
	t := func(n int) int {
		if tiny {
			return max(2, n/32)
		}
		return n
	}
	seqPar := func(family, spec string, seqTrials, parTrials int, exact float64) []jobDef {
		return []jobDef{
			{Family: family, Req: req("sequential", spec, t(seqTrials), server.Options{}), Exact: exact, Twin: spec, Probe: true},
			{Family: family, Req: req("parallel", spec, t(parTrials), server.Options{}), Exact: exact, Twin: spec},
		}
	}
	var jobs []jobDef
	jobs = append(jobs, seqPar("complete", "complete:512", 256, 160, completeTotalSteps(512, 512))...)
	jobs = append(jobs, seqPar("torus", "torus:8x8x8", 20, 16, 0)...)
	jobs = append(jobs, seqPar("hypercube", "hypercube:9", 160, 80, 0)...)
	jobs = append(jobs, seqPar("cycle", "cycle:128", 10, 4, 0)...)
	jobs = append(jobs, seqPar("tree", "bintree:9", 16, 8, 0)...)
	jobs = append(jobs,
		jobDef{Family: "ct-uniform", Req: req("ct-uniform", "complete:256", t(80), server.Options{}), Exact: completeTotalSteps(256, 256), Probe: true},
		jobDef{Req: req("sequential", "complete:512", t(2400), server.Options{Particles: 128}), Exact: completeTotalSteps(512, 128), Probe: true},
	)
	return workload{
		Name:      "kernels",
		Why:       "in-process Engine.Run on the paper's families at cache-resident sizes: graph builds are tiny, so the step kernels and process loops do nearly all the work",
		Jobs:      jobs,
		SetupReps: 100,
		ProbeReps: 3,
		RSSJobs:   rssJobs(tiny, 100*len(cycleOrder(jobs))),
	}
}

// memoryWorkload: working sets larger than the caches. One cycle runs the
// batched job once and each scalar job six times, so the lane path takes
// about two fifths of the time and a run completes well over 100 jobs.
// peak_rss_mib covers six cycles, which take about 15 s and span one
// collection.
func memoryWorkload(tiny bool) workload {
	wc, rr, tor, parts, batchTrials := "wcomplete:1024,1", "rregular:4096,4", "torus:1024x1024", 4096, 128
	if tiny {
		wc, rr, tor, parts, batchTrials = "wcomplete:64,1", "rregular:256,4", "torus:64x64", 128, 16
	}
	jobs := []jobDef{
		{Family: "wcomplete", Req: req("sequential", wc, batchTrials, server.Options{Batch: 64}), Twin: "wcomplete", Probe: true},
		{Family: "wcomplete", Req: req("sequential", wc, 2, server.Options{}), Weight: 6, Twin: "wcomplete", Probe: true},
		{Family: "rregular", Req: req("sequential", rr, 4, server.Options{}), Weight: 6, Probe: true},
		{Family: "torus-sparse", Req: req("sequential", tor, 2, server.Options{Particles: parts}), Weight: 6, Probe: true},
	}
	return workload{
		Name:      "memory",
		Why:       "in-process Engine.Run on working sets larger than the caches: graph build dominates setup_s, walks wait on cache misses, and the batched lane path does part of the work",
		Jobs:      jobs,
		SetupReps: 7,
		ProbeReps: 1,
		RSSJobs:   rssJobs(tiny, 6*len(cycleOrder(jobs))),
	}
}

// serviceJobKinds are the four ways a caller gets results from the
// service, run in equal shares.
var serviceJobKinds = []string{"stream", "summary", "shard-stream", "shard-summary"}

// serviceSpecs are the small-trial graphs of the service mix, with the
// trials per job that give each about the same engine time.
func serviceSpecs(tiny bool) []server.JobRequest {
	c, tor := 200, 16
	if tiny {
		c, tor = 20, 4
	}
	return []server.JobRequest{
		req("sequential", "complete:128", c, server.Options{}),
		req("sequential", "torus:16x16", tor, server.Options{}),
	}
}

func serviceWorkload(tiny bool) workload {
	return workload{
		Name:      "service",
		Why:       "nproc closed-loop clients on two loopback job servers: engine work per job is small, so encoding, buffering, scheduling, shard merge and the WAL dominate",
		SetupReps: 60,
		RSSJobs:   rssJobs(tiny, 1000),
	}
}

// rssJobs is a workload's RSSJobs: n, or a handful of jobs at the tiny
// size.
func rssJobs(tiny bool, n int) int {
	if tiny {
		return 4
	}
	return n
}

// workloads lists every workload by name, in BENCHMARK.json order.
func workloads(tiny bool) []workload {
	return []workload{kernelsWorkload(tiny), memoryWorkload(tiny), serviceWorkload(tiny)}
}
