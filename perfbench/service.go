package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"dispersion"
	"dispersion/agg"
	"dispersion/graphspec"
	"dispersion/server"
	"dispersion/shard"
	"dispersion/sink"
)

// counted wraps a server's handler and counts the requests it answers
// and the non-2xx answers among them.
type counted struct {
	h                  http.Handler
	requests, rejected atomic.Int64
}

func (c *counted) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.requests.Add(1)
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	c.h.ServeHTTP(sw, r)
	if sw.code < 200 || sw.code > 299 {
		c.rejected.Add(1)
	}
}

// statusWriter records the status code; it forwards Flush so NDJSON
// streams still flush line by line.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (s *statusWriter) WriteHeader(code int) {
	if !s.wrote {
		s.code, s.wrote = code, true
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusWriter) Write(b []byte) (int, error) {
	s.wrote = true
	return s.ResponseWriter.Write(b)
}

func (s *statusWriter) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *statusWriter) Unwrap() http.ResponseWriter { return s.ResponseWriter }

// cluster is the service under test: two job managers, each behind a
// loopback HTTP server. Together they run at most nproc engine workers
// (MaxConcurrent jobs of one worker each per manager).
type cluster struct {
	mgrs []*server.Manager
	srvs []*httptest.Server
	hs   []*counted
	urls []string
}

func startCluster(ctx context.Context, nproc int, client *http.Client) (*cluster, error) {
	c := &cluster{}
	for k := 0; k < 2; k++ {
		m, err := server.NewManager(server.ManagerOptions{
			MaxConcurrent: max(1, nproc/2),
			EngineWorkers: 1,
			// Long runs stream thousands of jobs; drop each consumed
			// buffer as a long-lived server would.
			EvictConsumed: true,
		})
		if err != nil {
			c.Close()
			return nil, err
		}
		h := &counted{h: server.New(m)}
		ts := httptest.NewServer(h)
		c.mgrs, c.hs, c.srvs, c.urls = append(c.mgrs, m), append(c.hs, h), append(c.srvs, ts), append(c.urls, ts.URL)
	}
	for _, u := range c.urls {
		if err := get(ctx, client, u+"/healthz", "", nil); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// Close stops the servers, then the managers.
func (c *cluster) Close() {
	for _, s := range c.srvs {
		s.Close()
	}
	for _, m := range c.mgrs {
		m.Close()
	}
}

func (c *cluster) counts() (requests, rejected int64) {
	for _, h := range c.hs {
		requests += h.requests.Load()
		rejected += h.rejected.Load()
	}
	return requests, rejected
}

// get fetches url and decodes its JSON body into v (nil discards it).
func get(ctx context.Context, client *http.Client, url, tenant string, v any) error {
	r, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if tenant != "" {
		r.Header.Set(server.APIKeyHeader, tenant)
	}
	resp, err := client.Do(r)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := httpErr("GET "+url, resp.StatusCode); err != nil {
		return err
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// observer is the http.RoundTripper the benchmark hands a coordinator: it
// tags the coordinator's requests with the client's tenant, counts its
// submissions and non-2xx answers, remembers the shard jobs it created,
// and (traced) records a server span per exchange, closed when the
// response body is.
type observer struct {
	base   http.RoundTripper
	tenant string
	tr     *tracer
	job    int64
	parent int

	mu      sync.Mutex
	submits int
	jobURLs []string
	errs    []error
}

func (o *observer) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	req.Header.Set(server.APIKeyHeader, o.tenant)
	submit := req.Method == http.MethodPost && req.URL.Path == "/v1/jobs"
	sp := o.tr.begin(o.job, o.parent, "server", "server.http")
	resp, err := o.base.RoundTrip(req)
	o.mu.Lock()
	defer o.mu.Unlock()
	if submit {
		o.submits++
	}
	if err != nil {
		o.tr.end(sp)
		if !errors.Is(err, context.Canceled) {
			o.errs = append(o.errs, err)
		}
		return nil, err
	}
	if submit && resp.StatusCode == http.StatusCreated {
		o.jobURLs = append(o.jobURLs, req.URL.Scheme+"://"+req.URL.Host+resp.Header.Get("Location"))
	}
	if err := httpErr(req.Method+" "+req.URL.Path, resp.StatusCode); err != nil {
		o.errs = append(o.errs, err)
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { o.tr.end(sp) }}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}

// firstRead times the first bytes of a response body.
type firstRead struct {
	r     io.Reader
	t0    time.Time
	first time.Duration
}

func (f *firstRead) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if n > 0 && f.first == 0 {
		f.first = time.Since(f.t0)
	}
	return n, err
}

// svcJob is one finished service job as the client saw it.
type svcJob struct {
	kind    string
	group   int
	req     server.JobRequest
	start   time.Time
	latency time.Duration
	first   time.Duration // direct streams only
	trials  int64
	steps   int64
	bytes   int64
	// body is the NDJSON stream (stream), the coordinator's merged
	// results re-encoded (shard-stream), or the canonical summary JSON
	// (summary kinds); nil outside the checked sample.
	body []byte
	// jobURLs are the server jobs behind it: one for a direct job, one
	// per shard submission for a coordinator job.
	jobURLs []string
	submits int
	walSize int64
}

// keepPerClient is how many of each client's first jobs keep their
// outputs for the post-run checks and the sink and agg probes: two full
// rounds of the kind × graph rotation.
const keepPerClient = 16

// svcRun carries one service run's state.
type svcRun struct {
	rc     runConfig
	cl     *cluster
	client *http.Client
	base   http.RoundTripper
	specs  []server.JobRequest
	tmp    string
	tally  *tally
	jobNo  atomic.Int64
}

func runService(ctx context.Context, rc runConfig, tr *tracer) (*result, error) {
	transport := &http.Transport{MaxIdleConnsPerHost: 8 * rc.nproc}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	w := serviceWorkload(rc.tiny)
	res := &result{e2e: map[string]float64{}, layer: zeroLayer(), tally: &tally{}}

	// Set-up: creating the managers and servers until both answer.
	setups := make([]float64, 0, w.SetupReps)
	var cl *cluster
	for i := 0; i < w.SetupReps; i++ {
		if cl != nil {
			cl.Close()
		}
		runtime.GC()
		t0 := time.Now()
		c, err := startCluster(ctx, rc.nproc, client)
		if err != nil {
			return nil, fmt.Errorf("start servers: %w", err)
		}
		setups = append(setups, rc.smp.net(t0, time.Since(t0), rc.nproc).Seconds())
		cl = c
	}
	defer cl.Close()
	res.e2e["setup_s"] = median(setups)

	tmp, err := os.MkdirTemp(rc.outDir, "service-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	s := &svcRun{rc: rc, cl: cl, client: client, base: transport, specs: serviceSpecs(rc.tiny), tmp: tmp, tally: res.tally}

	untracedS, tracedS := rc.phaseSeconds()
	p, jobs := s.timed(ctx, untracedS, w.RSSJobs, nil, 0)
	for k, v := range p.endToEnd(rc.smp, rc.nproc, func(m string) { res.notes = append(res.notes, m) }) {
		res.e2e[k] = v
	}
	kept := kept(jobs)
	if rc.trace {
		req0, rej0 := cl.counts()
		tp, tjobs := s.timed(ctx, tracedS, 0, tr, 1)
		req1, rej1 := cl.counts()
		res.layer["server.requests"] = float64(req1 - req0)
		res.layer["server.rejected"] = float64(rej1 - rej0)
		traceOverhead(res.layer, res.e2e, tp.endToEnd(rc.smp, rc.nproc, func(string) {}))
		res.layer["core.steps"] = float64(tp.steps)
		if err := s.buildProbe(tr, res.layer); err != nil {
			return nil, err
		}
		if err := s.layerMetrics(ctx, tr, tjobs, res.layer); err != nil {
			return nil, err
		}
		kept = append(kept, keptTraced(tjobs)...)
	}
	s.checks(ctx, kept, tr, res.layer)
	return res, nil
}

// timed runs nproc closed-loop clients until seconds have passed and at
// least rssJobs jobs have been answered; each client sends its next job
// only after reading the previous one's full answer, and rotates through
// every job kind on every graph.
func (s *svcRun) timed(ctx context.Context, seconds float64, rssJobs int, tr *tracer, tag uint64) (*phase, [][]svcJob) {
	limit := time.Duration(seconds * float64(time.Second))
	jobs := make([][]svcJob, s.rc.nproc)
	var wg sync.WaitGroup
	var answered atomic.Int64
	debug.FreeOSMemory()
	start, cpu0, st0 := time.Now(), cpuTime(), stolenTime()
	for c := 0; c < s.rc.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("client-%d", c)
			for k := 0; k == 0 || time.Since(start) < limit || answered.Load() < int64(rssJobs); k++ {
				q := c + k
				kind, spec := q%len(serviceJobKinds), (q/len(serviceJobKinds))%len(s.specs)
				req := s.specs[spec]
				req.Seed = jobSeed(s.rc.seed, tag, uint64(c), uint64(k))
				j, err := s.job(ctx, serviceJobKinds[kind], req, tenant, c, tr, k < keepPerClient)
				j.group = kind*len(s.specs) + spec
				s.tally.op(err)
				answered.Add(1)
				if err == nil {
					jobs[c] = append(jobs[c], j)
				}
			}
		}(c)
	}
	wg.Wait()
	p := &phase{start: start, elapsed: time.Since(start), cpu: cpuTime() - cpu0, stolen: stolenTime() - st0, rssJobs: rssJobs}
	for _, cj := range jobs {
		for _, j := range cj {
			p.jobs++
			p.trials += j.trials
			p.steps += j.steps
			first := time.Duration(-1)
			if j.kind == "stream" {
				first = j.first
			}
			p.timings = append(p.timings, jobTiming{group: j.group, start: j.start, latency: j.latency, first: first})
		}
	}
	return p, jobs
}

// job runs one service job of the given kind and reports what the client
// received. Server c%2 takes a client's direct jobs; the coordinator
// spreads its shards over both.
func (s *svcRun) job(ctx context.Context, kind string, req server.JobRequest, tenant string, c int, tr *tracer, keep bool) (svcJob, error) {
	no := s.jobNo.Add(1)
	root := tr.begin(no, 0, "bench", "job:"+kind)
	defer tr.end(root)
	t0 := time.Now()
	j := svcJob{kind: kind, req: req, start: t0}
	base := s.cl.urls[c%len(s.cl.urls)]
	var err error
	switch kind {
	case "stream":
		err = s.stream(ctx, &j, base, tenant, t0, tr, no, root)
	case "summary":
		err = s.summary(ctx, &j, base, tenant, tr, no, root)
	case "shard-stream", "shard-summary":
		err = s.sharded(ctx, &j, tenant, tr, no, root, keep)
	}
	j.latency = time.Since(t0)
	if !keep {
		j.body = nil
	}
	return j, err
}

// submit POSTs a job request and returns the new job's URL.
func (s *svcRun) submit(ctx context.Context, base, tenant string, req server.JobRequest, tr *tracer, no int64, root int) (string, error) {
	sp := tr.begin(no, root, "server", "server.submit")
	defer tr.end(sp)
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	r, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	r.Header.Set("Content-Type", "application/json")
	r.Header.Set(server.APIKeyHeader, tenant)
	resp, err := s.client.Do(r)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if err := httpErr("POST /v1/jobs", resp.StatusCode); err != nil {
		return "", err
	}
	var st server.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", fmt.Errorf("decode submit answer: %w", err)
	}
	return base + "/v1/jobs/" + st.ID, nil
}

// stream submits a job and reads its whole NDJSON results stream.
func (s *svcRun) stream(ctx context.Context, j *svcJob, base, tenant string, t0 time.Time, tr *tracer, no int64, root int) error {
	url, err := s.submit(ctx, base, tenant, j.req, tr, no, root)
	if err != nil {
		return err
	}
	j.jobURLs = []string{url}
	sp := tr.begin(no, root, "server", "server.stream")
	r, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/results", nil)
	if err != nil {
		return err
	}
	r.Header.Set(server.APIKeyHeader, tenant)
	resp, err := s.client.Do(r)
	if err != nil {
		tr.end(sp)
		return err
	}
	fr := &firstRead{r: resp.Body, t0: t0}
	body, err := io.ReadAll(fr)
	resp.Body.Close()
	tr.end(sp)
	if err != nil {
		return err
	}
	if err := httpErr("GET results", resp.StatusCode); err != nil {
		return err
	}
	if st := resp.Trailer.Get(server.TrailerJobState); st != string(server.StateDone) {
		return fmt.Errorf("results stream ended in state %q", st)
	}
	trials, err := sink.ReadJSONL(bytes.NewReader(body))
	if err != nil {
		return err
	}
	if len(trials) != j.req.Trials {
		return fmt.Errorf("results stream carried %d of %d trials", len(trials), j.req.Trials)
	}
	for _, t := range trials {
		j.steps += t.Result.TotalSteps
	}
	j.first, j.trials, j.bytes, j.body = fr.first, int64(len(trials)), int64(len(body)), body
	return nil
}

// summary submits a summary_only job and long-polls its summary.
func (s *svcRun) summary(ctx context.Context, j *svcJob, base, tenant string, tr *tracer, no int64, root int) error {
	req := j.req
	req.SummaryOnly = true
	url, err := s.submit(ctx, base, tenant, req, tr, no, root)
	if err != nil {
		return err
	}
	j.jobURLs = []string{url}
	sp := tr.begin(no, root, "server", "server.summary")
	var sr server.SummaryResponse
	err = get(ctx, s.client, url+"/summary?wait=1", tenant, &sr)
	tr.end(sp)
	if err != nil {
		return err
	}
	if sr.State != server.StateDone || sr.Completed != req.Trials {
		return fmt.Errorf("summary answered state %q with %d of %d trials", sr.State, sr.Completed, req.Trials)
	}
	var sum agg.Summary
	if err := json.Unmarshal(sr.Summary, &sum); err != nil {
		return fmt.Errorf("decode summary: %w", err)
	}
	return j.setSummary(&sum)
}

// setSummary records a summary answer in its canonical bytes.
func (j *svcJob) setSummary(sum *agg.Summary) error {
	b, err := sum.MarshalJSON()
	if err != nil {
		return err
	}
	j.trials, j.steps, j.body = sum.Trials, int64(sum.TotalSteps.Moments.Sum()), b
	if sum.Trials != int64(j.req.Trials) {
		return fmt.Errorf("summary covers %d of %d trials", sum.Trials, j.req.Trials)
	}
	return nil
}

// sharded runs a job through a shard.Coordinator over both servers:
// Coordinator.Run with a checkpoint file, or Coordinator.RunSummary.
func (s *svcRun) sharded(ctx context.Context, j *svcJob, tenant string, tr *tracer, no int64, root int, keep bool) error {
	sp := tr.begin(no, root, "shard", "shard.run")
	defer tr.end(sp)
	obs := &observer{base: s.base, tenant: tenant, tr: tr, job: no, parent: sp}
	coord := &shard.Coordinator{Servers: s.cl.urls, Client: &http.Client{Transport: obs}}
	var err error
	if j.kind == "shard-summary" {
		var sum *agg.Summary
		if sum, err = coord.RunSummary(ctx, j.req); err == nil {
			err = j.setSummary(sum)
		}
	} else {
		coord.Checkpoint = filepath.Join(s.tmp, fmt.Sprintf("job-%d.jsonl", no))
		var buf bytes.Buffer
		enc := sink.NewJSONL(&buf)
		err = coord.Run(ctx, j.req, func(t dispersion.Trial) error {
			j.trials++
			j.steps += t.Result.TotalSteps
			if keep {
				return enc.Write(t)
			}
			return nil
		})
		for _, f := range []string{coord.Checkpoint, coord.Checkpoint + ".meta"} {
			if st, serr := os.Stat(f); serr == nil {
				j.walSize += st.Size()
			}
			os.Remove(f)
		}
		j.body = buf.Bytes()
		if err == nil && j.trials != int64(j.req.Trials) {
			err = fmt.Errorf("coordinator delivered %d of %d trials", j.trials, j.req.Trials)
		}
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	j.jobURLs, j.submits = obs.jobURLs, obs.submits
	if err == nil && len(obs.errs) > 0 {
		err = fmt.Errorf("coordinator saw %d failed exchanges, first: %w", len(obs.errs), obs.errs[0])
	}
	return err
}

// kept returns the jobs whose outputs were kept for checking.
func kept(jobs [][]svcJob) []svcJob {
	var out []svcJob
	for _, cj := range jobs {
		out = append(out, cj[:min(len(cj), keepPerClient)]...)
	}
	return out
}

// keptTraced keeps the traced phase's first round of each client: enough
// to check it too, without doubling the untraced sample.
func keptTraced(jobs [][]svcJob) []svcJob {
	var out []svcJob
	for _, cj := range jobs {
		out = append(out, cj[:min(len(cj), len(serviceJobKinds))]...)
	}
	return out
}

// layerMetrics reads the per-layer numbers of the traced phase from its
// spans and from the servers' own job timestamps.
func (s *svcRun) layerMetrics(ctx context.Context, tr *tracer, jobs [][]svcJob, layer map[string]float64) error {
	spans := tr.snapshot()
	_, layer["server.submit_s"] = nameStats(spans, "server.submit")
	_, layer["server.stream_s"] = nameStats(spans, "server.stream")
	_, layer["shard.run_s"] = nameStats(spans, "shard.run")

	var waits, runs, over, overStream, overSummary []float64
	var submits, shards int
	var walBytes, walJobs, streamBytes, streamTrials int64
	for _, cj := range jobs {
		for _, j := range cj {
			slowest := 0.0
			for _, u := range j.jobURLs {
				var st server.Status
				if err := get(ctx, s.client, u, "", &st); err != nil {
					return fmt.Errorf("job status: %w", err)
				}
				if st.StartedAt.IsZero() || st.FinishedAt.IsZero() {
					continue // a shard attempt that never ran
				}
				wait, run := st.StartedAt.Sub(st.SubmittedAt).Seconds(), st.FinishedAt.Sub(st.StartedAt).Seconds()
				waits, runs = append(waits, wait), append(runs, run)
				slowest = max(slowest, run)
			}
			switch j.kind {
			case "stream":
				streamBytes += j.bytes
				streamTrials += j.trials
			case "shard-stream", "shard-summary":
				o := j.latency.Seconds() - slowest
				over = append(over, o)
				if j.kind == "shard-stream" {
					overStream = append(overStream, o)
					walBytes += j.walSize
					walJobs++
				} else {
					overSummary = append(overSummary, o)
				}
				submits += j.submits
				shards += min(len(s.cl.urls), j.req.Trials)
			}
		}
	}
	layer["server.queue_wait_s"] = mean(waits)
	layer["server.run_s"] = mean(runs)
	layer["shard.overhead_s"] = mean(over)
	layer["shard.overhead_s.stream"] = mean(overStream)
	layer["shard.overhead_s.summary"] = mean(overSummary)
	if shards > 0 {
		layer["shard.submits_per_shard"] = float64(submits) / float64(shards)
	}
	if walJobs > 0 {
		layer["shard.wal_bytes"] = float64(walBytes) / float64(walJobs)
	}
	if streamTrials > 0 {
		layer["sink.bytes_per_trial"] = float64(streamBytes) / float64(streamTrials)
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// reference recomputes a request in process — graphspec.Build with the
// request's seed, then Engine.Run over its trial range — returning the
// trials as the server would stream them and their summary.
func reference(ctx context.Context, req server.JobRequest, graphs map[string]dispersion.Graph, tr *tracer) ([]byte, *agg.Summary, error) {
	key := fmt.Sprintf("%s@%d", req.Spec, req.Seed)
	g, ok := graphs[key]
	if !ok {
		var err error
		g, err = graphspec.Build(req.Spec, req.Seed)
		if err != nil {
			return nil, nil, err
		}
		graphs[key] = g
	}
	eng := dispersion.Engine{Seed: req.Seed, Experiment: req.Experiment}
	job := dispersion.Job{Process: req.Process, Graph: g, Origin: req.Origin, FirstTrial: req.FirstTrial, Trials: req.Trials, Options: req.Options.Build()}
	var buf bytes.Buffer
	enc := sink.NewJSONL(&buf)
	sum := agg.NewSummary()
	sp := tr.begin(0, 0, "engine", "engine.check")
	err := eng.Run(ctx, job, func(t dispersion.Trial) error {
		sum.Add(t.Result)
		return enc.Write(t)
	})
	tr.end(sp)
	return buf.Bytes(), sum, err
}

// checks compares each kept job's output with what the determinism
// contract says it must equal, byte for byte: a stream or a sharded
// stream with the in-process Engine.Run of the same (seed, trial range),
// a summary with the fold of those trials, and a stream job's own
// server-side summary with the fold of the trials it streamed. The
// traced run also times the sink and agg layers on the kept streams.
func (s *svcRun) checks(ctx context.Context, kept []svcJob, tr *tracer, layer map[string]float64) {
	graphs := map[string]dispersion.Graph{}
	var encNs, decNs, addNs, mergeNs []float64
	var sumBytes []float64
	for _, j := range kept {
		want, fold, err := reference(ctx, j.req, graphs, tr)
		if err != nil {
			s.tally.check(false, fmt.Sprintf("reference run of %s %s: %v", j.kind, j.req.Spec, err))
			continue
		}
		wantSum, err := fold.MarshalJSON()
		if err != nil {
			s.tally.check(false, fmt.Sprintf("marshal reference summary: %v", err))
			continue
		}
		switch j.kind {
		case "stream", "shard-stream":
			s.tally.check(bytes.Equal(j.body, want), fmt.Sprintf("%s of %s seed %d differs from in-process Engine.Run", j.kind, j.req.Spec, j.req.Seed))
		default:
			s.tally.check(bytes.Equal(j.body, wantSum), fmt.Sprintf("%s of %s seed %d differs from the fold of in-process trials", j.kind, j.req.Spec, j.req.Seed))
		}
		if j.kind != "stream" {
			continue
		}
		// The stream job's own summary, read back from its server, must
		// equal the fold of the trials it streamed, and folding the two
		// halves separately then merging must give the same bytes.
		trials, err := sink.ReadJSONL(bytes.NewReader(j.body))
		if err != nil {
			s.tally.check(false, fmt.Sprintf("decode kept stream: %v", err))
			continue
		}
		var sr server.SummaryResponse
		if err := get(ctx, s.client, j.jobURLs[0]+"/summary", "", &sr); err != nil {
			s.tally.check(false, fmt.Sprintf("read stream job summary: %v", err))
			continue
		}
		var served agg.Summary
		servedBytes := []byte("unreadable")
		if json.Unmarshal(sr.Summary, &served) == nil {
			servedBytes, _ = served.MarshalJSON()
		}
		streamed := agg.NewSummary()
		t0 := time.Now()
		sp := tr.begin(0, 0, "agg", "agg.add")
		for _, t := range trials {
			streamed.Add(t.Result)
		}
		tr.end(sp)
		addNs = append(addNs, float64(time.Since(t0).Nanoseconds())/float64(len(trials)))
		streamedBytes, _ := streamed.MarshalJSON()
		s.tally.check(bytes.Equal(servedBytes, streamedBytes), fmt.Sprintf("server summary of stream job %s differs from the fold of its streamed trials", j.jobURLs[0]))

		half := len(trials) / 2
		a, b := agg.NewSummary(), agg.NewSummary()
		for i, t := range trials {
			if i < half {
				a.Add(t.Result)
			} else {
				b.Add(t.Result)
			}
		}
		t0 = time.Now()
		sp = tr.begin(0, 0, "agg", "agg.merge")
		err = a.Merge(b)
		tr.end(sp)
		mergeNs = append(mergeNs, float64(time.Since(t0).Nanoseconds()))
		mergedBytes, _ := a.MarshalJSON()
		s.tally.check(err == nil && bytes.Equal(mergedBytes, streamedBytes), "merged half summaries differ from the whole fold")
		sumBytes = append(sumBytes, float64(len(streamedBytes)))

		if tr == nil {
			continue
		}
		var buf bytes.Buffer
		enc := sink.NewJSONL(&buf)
		t0 = time.Now()
		sp = tr.begin(0, 0, "sink", "sink.encode")
		for _, t := range trials {
			if err := enc.Write(t); err != nil {
				break
			}
		}
		tr.end(sp)
		encNs = append(encNs, float64(time.Since(t0).Nanoseconds())/float64(len(trials)))
		t0 = time.Now()
		sp = tr.begin(0, 0, "sink", "sink.decode")
		_, err = sink.ReadJSONL(bytes.NewReader(buf.Bytes()))
		tr.end(sp)
		decNs = append(decNs, float64(time.Since(t0).Nanoseconds())/float64(len(trials)))
		s.tally.check(err == nil && bytes.Equal(buf.Bytes(), j.body), "re-encoded stream differs from the bytes the server sent")
	}
	if tr == nil {
		return
	}
	layer["agg.add_ns"] = median(addNs)
	layer["agg.merge_s"] = median(mergeNs) / 1e9
	layer["agg.summary_bytes"] = median(sumBytes)
	layer["sink.encode_ns_per_trial"] = median(encNs)
	layer["sink.decode_ns_per_trial"] = median(decNs)
}

// buildProbe times the graph build each service job pays on its server:
// graphspec.Build of every spec of the mix, reported per build.
func (s *svcRun) buildProbe(tr *tracer, layer map[string]float64) error {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	root := tr.begin(0, 0, "bench", "setup")
	for _, r := range s.specs {
		sp := tr.begin(0, root, "graphspec", "graphspec.build")
		_, err := graphspec.Build(r.Spec, s.rc.seed)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	tr.end(root)
	runtime.ReadMemStats(&after)
	spans := tr.snapshot()
	builds, meanBuild := nameStats(spans, "graphspec.build")
	layer["graphspec.builds"] = float64(builds)
	layer["graphspec.build_s"] = meanBuild
	layer["graphspec.build_alloc_mib"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(s.specs)) / (1 << 20)
	return nil
}
