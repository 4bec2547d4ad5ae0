// Command perfbench is the repository benchmark. It runs one workload —
// kernels, memory or service — through the public entry points only
// (graphspec.Build, dispersion.Engine.Run, the /v1 HTTP API of
// server.New over loopback, shard.Coordinator.Run and RunSummary),
// checks the outputs, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 the run spends half its time untraced and half traced,
// with spans around every call the benchmark makes into a layer, and the
// metrics are the per-layer ones: self times, work counts, and the
// tracing overhead (traced minus untraced end-to-end numbers). Spans are
// written to <out>/traces/ when the run ends.
//
// Run it from the repository root through perfbench/run.sh, which builds
// this module against the checkout:
//
//	bash perfbench/run.sh --workload kernels --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
	// tiny shrinks every workload to a smoke-test size.
	tiny bool
	// nproc bounds client goroutines and engine workers.
	nproc int
	// smp nets stolen time out of timed intervals and reads the resident
	// set; nil times raw.
	smp *sampler
}

// phaseSeconds splits the run's time: all of it untraced, or half
// untraced and half traced.
func (rc runConfig) phaseSeconds() (untraced, traced float64) {
	if rc.trace {
		return rc.seconds / 2, rc.seconds / 2
	}
	return rc.seconds, 0
}

// jobTiming is one job as its caller timed it.
type jobTiming struct {
	// group is the job's configuration: its config in process, its kind
	// and graph in service. The p50 metrics take the median per group.
	group   int
	start   time.Time
	latency time.Duration
	first   time.Duration // to the first result; negative if not timed
}

// phase is what one timed phase delivered to the caller.
type phase struct {
	start      time.Time
	elapsed    time.Duration
	jobs       int64
	trials     int64
	steps      int64 // Σ TotalSteps of the delivered trials
	laneTrials int64 // trials delivered by batched jobs
	timings    []jobTiming
	busy       []float64 // in process: seconds spent in each config's jobs
	cpu        time.Duration
	stolen     time.Duration
	// rssJobs is the number of completed jobs the resident-set peak is
	// read over (the workload's RSSJobs); 0 reads it over the whole phase.
	rssJobs int
}

// endToEnd computes the phase's end-to-end metrics; setup and ok_ratio
// are filled in by the caller. Every interval is taken net of the time
// stolen from the cpus virtual CPUs the phase kept busy. The resident-set
// peak is sampled from the start of the phase, which starts with set-up's
// garbage returned to the OS, until its first rssJobs jobs have completed:
// it is the memory a fixed amount of the workload runs in.
//
// The p50 metrics are the median over groups of each group's median: a
// mix whose configurations differ by orders of magnitude has no dense
// middle, so the pooled median would sit on the edge of one
// configuration's distribution and jump between runs. p90 is pooled over
// all jobs and is valid only with at least minBeyond jobs beyond it.
func (p *phase) endToEnd(smp *sampler, cpus int, warn func(string)) map[string]float64 {
	sec := smp.net(p.start, p.elapsed, cpus).Seconds()
	m := map[string]float64{
		"trials_per_s": float64(p.trials) / sec,
		"jobs_per_s":   float64(p.jobs) / sec,
	}
	var lat []float64
	latBy, firstBy := map[int][]float64{}, map[int][]float64{}
	for _, t := range p.timings {
		l := smp.net(t.start, t.latency, cpus).Seconds()
		lat = append(lat, l)
		latBy[t.group] = append(latBy[t.group], l)
		if t.first >= 0 {
			firstBy[t.group] = append(firstBy[t.group], smp.net(t.start, t.first, cpus).Seconds())
		}
	}
	m["job_latency_p50_s"] = medianOfMedians(latBy)
	p90, ok := percentile(lat, 0.9)
	if !ok {
		warn(fmt.Sprintf("job_latency_p90_s rests on %d jobs; it needs at least 100", len(lat)))
	}
	m["job_latency_p90_s"] = p90
	m["first_result_p50_s"] = medianOfMedians(firstBy)
	if peak, ok := smp.peakRSS(p.start, p.rssUntil(warn)); ok {
		m["peak_rss_mib"] = float64(peak) / (1 << 20)
	} else {
		m["peak_rss_mib"] = peakRSSMiB()
	}
	warn(fmt.Sprintf("timed phase: %d jobs, wall %.3f s, cpu %.3f s, stolen %.3f s, net %.3f s", len(lat), p.elapsed.Seconds(), p.cpu.Seconds(), p.stolen.Seconds(), sec))
	return m
}

// rssUntil is when the phase's first rssJobs jobs had completed, or the
// phase's end if it has no rssJobs or fewer completed jobs.
func (p *phase) rssUntil(warn func(string)) time.Time {
	end := p.start.Add(p.elapsed)
	if p.rssJobs == 0 {
		return end
	}
	if len(p.timings) < p.rssJobs {
		warn(fmt.Sprintf("peak_rss_mib covers the whole phase: %d jobs completed, it needs %d", len(p.timings), p.rssJobs))
		return end
	}
	ends := make([]time.Time, len(p.timings))
	for i, t := range p.timings {
		ends[i] = t.start.Add(t.latency)
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i].Before(ends[j]) })
	return ends[p.rssJobs-1]
}

// result is a finished workload run.
type result struct {
	e2e   map[string]float64
	layer map[string]float64
	tally *tally
	notes []string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "workload: kernels, memory or service")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "length of the timed part of the run")
	traceFlag := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	outDir := fs.String("out", ".bench_build", "directory for traces and temporary files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace %d (want 0 or 1)\n", *traceFlag)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds %v (want > 0)\n", *seconds)
		return 2
	}
	rc := runConfig{
		workload: *workloadName,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traceFlag == 1,
		outDir:   *outDir,
		nproc:    runtime.NumCPU(),
	}
	res, err := execute(context.Background(), rc)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := report(stdout, rc, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// execute runs one workload end to end and writes its spans.
func execute(ctx context.Context, rc runConfig) (*result, error) {
	var w *workload
	for _, c := range workloads(rc.tiny) {
		if c.Name == rc.workload {
			w = &c
			break
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (want kernels, memory or service)", rc.workload)
	}
	if err := os.MkdirAll(filepath.Join(rc.outDir, "traces"), 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	rc.smp = startSampler()
	defer rc.smp.Stop()
	var (
		res *result
		err error
	)
	if w.Name == "service" {
		res, err = runService(ctx, rc, tr)
	} else {
		res, err = runInproc(ctx, *w, rc, tr)
	}
	if err != nil {
		return nil, err
	}
	res.e2e["ok_ratio"] = 1 - res.tally.failedRatio()
	if rc.trace {
		res.layer["failed_ratio"] = res.tally.failedRatio()
		spans := tr.snapshot()
		res.layer["trace.spans"] = float64(len(spans))
		self := layerSelf(spans)
		for _, l := range layers {
			res.layer["trace.self_s."+l] = self[l]
		}
		path := filepath.Join(rc.outDir, "traces", fmt.Sprintf("%s-seed%d.json", rc.workload, rc.seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return res, nil
}

// traceOverhead records the traced phase's end-to-end numbers minus the
// untraced phase's.
func traceOverhead(layer, untraced, traced map[string]float64) {
	layer["trace.overhead.trials_per_s"] = traced["trials_per_s"] - untraced["trials_per_s"]
	layer["trace.overhead.job_latency_p50_s"] = traced["job_latency_p50_s"] - untraced["job_latency_p50_s"]
}

// runMeta is recorded with every result.
type runMeta struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	Commit    string  `json:"commit"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	Nproc     int     `json:"nproc"`
	CPU       string  `json:"cpu"`
	GoVersion string  `json:"go_version"`
}

func meta(rc runConfig) runMeta {
	return runMeta{
		Workload: rc.workload, Seed: rc.seed, Seconds: rc.seconds, Trace: rc.trace,
		Commit: commit(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Nproc: rc.nproc, CPU: cpuModel(), GoVersion: runtime.Version(),
	}
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB is the process's peak resident set (VmHWM), falling back to
// the Go runtime's total obtained memory where /proc is unavailable; it
// stands in where the sampler read no resident set.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable lines and, last, the result object.
func report(w io.Writer, rc runConfig, res *result) error {
	mb, err := json.Marshal(meta(rc))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "meta %s\n", mb)
	for _, n := range res.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	res.tally.mu.Lock()
	attempted, failed, failures := res.tally.attempted, res.tally.failed, res.tally.failures
	res.tally.mu.Unlock()
	for _, f := range failures {
		fmt.Fprintf(w, "failure %s\n", f)
	}
	defs := endToEnd
	vals := res.e2e
	if rc.trace {
		// The traced run also shows its untraced half, for reading the
		// layer numbers against.
		printMetrics(w, "untraced", endToEnd, res.e2e)
		defs, vals = perLayer, res.layer
	}
	printMetrics(w, "metric", defs, vals)
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured (%v)", d.Name, v)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func printMetrics(w io.Writer, prefix string, defs []metricDef, vals map[string]float64) {
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	unit := map[string]string{}
	for _, d := range defs {
		unit[d.Name] = d.Unit
	}
	for _, n := range names {
		fmt.Fprintf(w, "%s %s %.6g %s\n", prefix, n, vals[n], unit[n])
	}
}
