// Package shard fans one logical dispersion job out as disjoint
// trial-range shards across one or more dispersion servers and merges
// the result streams back into a single in-order callback.
//
// The engine's determinism contract makes sharding trivial to state:
// trial i of a job always draws the split random stream
// (seed, experiment, i), so a server.JobRequest with FirstTrial = f and
// Trials = n computes exactly trials [f, f+n) of the one logical run —
// bit-identical to the corresponding slice of a contiguous run. The
// Coordinator splits [FirstTrial, FirstTrial+Trials) into K contiguous
// ranges, submits each as its own job (round-robin over the configured
// servers), consumes the K NDJSON streams concurrently, and delivers the
// merged results in strict trial order, exactly once.
//
// Failures are retried without recomputation: a stream cut by the
// transport reconnects with ?from= advanced past the lines already
// consumed, and a shard whose job dies (server restart, cancellation) is
// resubmitted with FirstTrial advanced past the trials already
// delivered. The server's X-Job-State trailer (server.TrailerJobState)
// is what distinguishes the two cases: a stream that ends with the
// trailer "done" is complete, while "failed"/"cancelled" or a missing
// trailer triggers the retry path.
//
// With Checkpoint set, every merged result is appended to a JSONL
// write-ahead log before it reaches the callback, so a killed
// coordinator resumes exactly where it stopped: on the next Run the log
// is replayed to the callback from disk and only the remaining trial
// range is resubmitted.
//
// RunSummary is the sketch-merge mode: shards run as summary_only jobs,
// only their agg.Summary sketches cross the network, and the merged
// summary is byte-identical to a contiguous run's — see RunSummary.
package shard

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"dispersion"
	"dispersion/server"
	"dispersion/sink"
)

// Coordinator fans one logical job out as disjoint trial-range shards.
// The zero value is not usable: at least one server URL is required.
type Coordinator struct {
	// Servers are the dispersion-server base URLs (e.g.
	// "http://host:8080") the shards are submitted to, round-robin by
	// shard index; retries rotate to the next server.
	Servers []string
	// Shards is K, the number of disjoint trial ranges the job is split
	// into. 0 means one shard per server. K is capped at the trial count.
	Shards int
	// Checkpoint is the path of the JSONL write-ahead result log. A
	// "<Checkpoint>.meta" sidecar pins the log to its job request, so a
	// resume with different coordinates is rejected rather than mixing
	// stale results. Empty disables checkpointing: a killed coordinator
	// then restarts the run from scratch.
	Checkpoint string
	// Client is the HTTP client used for all requests; nil means
	// http.DefaultClient. Do not set a client Timeout: result streams of
	// long jobs are expected to stay open indefinitely.
	Client *http.Client
	// Retries caps the consecutive attempts a shard makes without moving
	// forward (a new result in Run; in RunSummary, a poll that sees the
	// running job's completed count rise) before the run is abandoned;
	// attempts that move forward reset the budget. 0 means 5. A summary
	// job's progress dies with the job, so RunSummary also abandons the
	// run, with the last job's error, once a shard's jobs have ended
	// failed, cancelled or gone Retries times in a row. 429
	// admission-control rejections do not consume this budget: the
	// coordinator obeys the server's Retry-After hint on a separate,
	// larger throttle budget.
	Retries int
	// JitterSeed seeds the backoff jitter deterministically; 0 (the
	// default) draws a random seed, which is what decorrelates the retry
	// schedules of independent coordinators hitting one recovering
	// server. Set it only to make retry timing reproducible in tests.
	JitterSeed uint64

	seedOnce sync.Once
	seed     uint64
}

// trialRange is one shard's slice [first, first+trials) of the logical
// trial range.
type trialRange struct {
	first, trials int
}

// splitRange cuts [first, first+trials) into at most k contiguous
// non-empty ranges of near-equal size. The split depends only on
// (first, trials, k), so shard boundaries are stable across resumes.
func splitRange(first, trials, k int) []trialRange {
	out := make([]trialRange, 0, k)
	for i := 0; i < k; i++ {
		lo := first + i*trials/k
		hi := first + (i+1)*trials/k
		if hi > lo {
			out = append(out, trialRange{first: lo, trials: hi - lo})
		}
	}
	return out
}

// client returns the configured HTTP client.
func (c *Coordinator) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return http.DefaultClient
}

// retries returns the configured no-progress attempt budget.
func (c *Coordinator) retries() int {
	if c.Retries > 0 {
		return c.Retries
	}
	return 5
}

// plan validates req and splits its logical range into the shard
// ranges. The validation mirrors the server's submit-time check, so a
// malformed request fails before any shard is queued anywhere. The split
// depends only on (FirstTrial, Trials, K), so it is the same on every
// resume.
func (c *Coordinator) plan(req server.JobRequest) ([]trialRange, error) {
	if len(c.Servers) == 0 {
		return nil, errors.New("shard: no servers configured")
	}
	probe := dispersion.Job{
		Process:    req.Process,
		Spec:       req.Spec,
		Origin:     req.Origin,
		Trials:     req.Trials,
		FirstTrial: req.FirstTrial,
	}
	if err := probe.Validate(); err != nil {
		return nil, err
	}
	k := c.Shards
	if k <= 0 {
		k = len(c.Servers)
	}
	return splitRange(req.FirstTrial, req.Trials, min(k, req.Trials)), nil
}

// fanOut runs drive(ctx, i) for shards 0..n-1, one goroutine each, and
// merge on the calling goroutine. Once merge returns, the shards' context
// is cancelled, and fanOut returns merge's error only after every shard
// goroutine has exited: an abandoned shard's job cancellation has reached
// its server before the caller sees the error.
func fanOut(ctx context.Context, n int, drive func(ctx context.Context, i int), merge func() error) error {
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drive(ctx, i)
		}()
	}
	err := merge()
	cancel()
	wg.Wait()
	return err
}

// shardError names the shard an unrecoverable error came from.
func shardError(i int, rg trialRange, err error) error {
	return fmt.Errorf("shard: shard %d (trials [%d,%d)): %w", i, rg.first, rg.first+rg.trials, err)
}

// Run executes the logical job described by req — trials
// [req.FirstTrial, req.FirstTrial+req.Trials) of (seed, experiment) —
// across the coordinator's servers and delivers every result to each in
// strict trial order, exactly once: the merged stream is bit-identical
// to a single contiguous Engine.Run (or one unsharded server job) with
// the same coordinates. each may be nil to discard results.
//
// With Checkpoint set, results already in the log are replayed to each
// from disk first and only the remainder is computed, so Run is
// restartable: kill it at any point and call it again with the same
// request. Run returns the first unrecoverable error — a context
// cancellation, a callback or checkpoint error, or a shard that
// exhausted its retry budget — once every shard has stopped.
func (c *Coordinator) Run(ctx context.Context, req server.JobRequest, each func(dispersion.Trial) error) error {
	ranges, err := c.plan(req)
	if err != nil {
		return err
	}
	delivered := 0
	var log *wal
	if c.Checkpoint != "" {
		if log, delivered, err = resumeResults(c.Checkpoint, req, each); err != nil {
			return err
		}
		defer log.Close()
	}

	// Clip away the prefix the checkpoint already holds.
	resumeFrom := req.FirstTrial + delivered
	var streams []*streamMode
	for _, rg := range ranges {
		end := rg.first + rg.trials
		if end <= resumeFrom {
			continue
		}
		rg.first = max(rg.first, resumeFrom)
		rg.trials = end - rg.first
		streams = append(streams, &streamMode{c: c, rg: rg, ch: make(chan dispersion.Trial, 256)})
	}

	err = fanOut(ctx, len(streams), func(ctx context.Context, i int) {
		s := streams[i]
		defer close(s.ch)
		s.err = c.runShard(ctx, i, s.rg, req, s)
	}, func() error {
		// Shards cover contiguous ranges in index order, so draining
		// them one after another yields the global trial order. Later
		// shards compute (and buffer server-side) while earlier ones
		// drain.
		next := resumeFrom
		for i, s := range streams {
			for tr := range s.ch {
				if tr.Index != next {
					return fmt.Errorf("shard: shard %d delivered trial %d, want %d", i, tr.Index, next)
				}
				if log != nil {
					if err := log.Append(sink.Record{Trial: tr.Index, Result: tr.Result}); err != nil {
						return fmt.Errorf("shard: checkpoint: %w", err)
					}
				}
				if each != nil {
					if err := each(tr); err != nil {
						return err
					}
				}
				next++
			}
			if s.err != nil {
				return shardError(i, s.rg, s.err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return log.Close()
}

// errJobGone reports that a shard's job no longer exists on its server
// (e.g. the server restarted), so reconnecting is pointless and the
// shard must be resubmitted.
var errJobGone = errors.New("job no longer exists on its server")

// shardMode is the payload seam of runShard. Run's streamMode and
// RunSummary's summaryMode are its two implementations.
type shardMode interface {
	// submitRange returns the trials a new job for the shard must
	// compute. It is asked before every (re)submission.
	submitRange() trialRange
	// follow follows the job at jobURL until the job ends or the
	// connection breaks. advanced reports that this attempt moved the
	// shard forward; complete reports that the shard's payload is whole,
	// whatever state the job ended in. Otherwise a nil err means state is
	// the job's terminal state, and a non-nil err is an interruption:
	// errJobGone forces a resubmission, anything else a re-follow.
	follow(ctx context.Context, jobURL string) (advanced, complete bool, state server.State, err error)
	// durable reports whether the progress an advancing follow made
	// survives the loss of its job. Where it does not, consecutive lost
	// jobs count against the retry budget however far each one got.
	durable() bool
}

// runShard drives one shard to completion: submit a job, follow it
// through m, and on any interruption recover — follow the job again
// while it is alive, resubmit (rotating servers) when it is not. It is
// the coordinator's only retry loop.
func (c *Coordinator) runShard(ctx context.Context, idx int, rg trialRange, req server.JobRequest, m shardMode) (err error) {
	var (
		jobURL    string // active job, "" when a (re)submit is needed
		fails     int    // consecutive attempts that did not advance
		lost      int    // consecutive jobs lost without durable progress
		throttles int    // consecutive 429-throttled submissions
		lastErr   error
	)
	rng := c.shardRNG(idx)
	// An abandoned exit leaves the active job computing a range nobody
	// will ever consume; cancel it so the server stops burning cores.
	defer func() {
		if err != nil && jobURL != "" {
			c.cancelJob(jobURL)
		}
	}()
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if fails >= c.retries() {
			return fmt.Errorf("no progress after %d attempts: %w", fails, lastErr)
		}
		if lost >= c.retries() {
			return fmt.Errorf("%d jobs in a row ended unfinished: %w", lost, lastErr)
		}
		if fails > 0 {
			// Back off after a no-progress attempt so a brief outage — a
			// server restart, say — does not burn the whole retry budget
			// in microseconds. The wait is jittered so K followers of one
			// recovering server spread out instead of retrying in
			// lockstep.
			select {
			case <-time.After(jitteredBackoff(rng, fails)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if jobURL == "" {
			sub := m.submitRange()
			shardReq := req
			shardReq.FirstTrial = sub.first
			shardReq.Trials = sub.trials
			base := c.Servers[(idx+attempt)%len(c.Servers)]
			st, err := c.submit(ctx, base, shardReq)
			var te *throttleError
			if errors.As(err, &te) && throttles < maxThrottles {
				// Admission control shed the job: the server is healthy
				// and pacing us, so obey its Retry-After hint without
				// consuming the no-progress retry budget.
				throttles++
				lastErr = err
				select {
				case <-time.After(throttleWait(rng, te.retryAfter)):
				case <-ctx.Done():
					return ctx.Err()
				}
				continue
			}
			if err != nil {
				lastErr = err
				fails++
				continue
			}
			throttles = 0
			jobURL = strings.TrimSuffix(base, "/") + "/v1/jobs/" + st.ID
		}
		advanced, complete, state, err := m.follow(ctx, jobURL)
		if complete {
			return nil
		}
		if advanced {
			fails = 0
			if m.durable() {
				lost = 0
			}
		}
		switch {
		case err == nil && state == server.StateDone:
			// The job finished without completing the shard: a
			// server-side bug.
			return fmt.Errorf("job reported done before settling all %d trials", rg.trials)
		case err == nil:
			// The job is terminally failed or cancelled; resubmit on the
			// next server. A deterministic failure will exhaust the retry
			// budget and surface here.
			lastErr = fmt.Errorf("job ended %s%s", state, c.jobError(ctx, jobURL))
			jobURL = ""
			lost++
		case errors.Is(err, errJobGone):
			lastErr = err
			jobURL = ""
			lost++
		default:
			// A transport cut or an early poll return: the job itself
			// may be fine, so follow it again.
			lastErr = err
		}
		fails++
	}
}

// streamMode follows a shard's jobs as NDJSON result streams, pushing
// each result into ch in trial order. A resubmission computes only the
// undelivered remainder of the range.
type streamMode struct {
	c        *Coordinator
	rg       trialRange
	ch       chan dispersion.Trial
	err      error // the shard's outcome, set before ch is closed
	done     int   // trials of rg already pushed into ch
	streamed int   // result lines already consumed from the active job
}

// submitRange returns the undelivered remainder of the range.
func (m *streamMode) submitRange() trialRange {
	m.streamed = 0 // a new job streams from its first line
	return trialRange{first: m.rg.first + m.done, trials: m.rg.trials - m.done}
}

// follow reads the job's results from ?from= past the lines already
// consumed. Delivered results are never recomputed, so any new result
// moves the shard forward.
func (m *streamMode) follow(ctx context.Context, jobURL string) (bool, bool, server.State, error) {
	n, state, err := m.c.readResults(ctx, jobURL, m.streamed, m.rg.first+m.done, m.ch)
	m.streamed += n
	m.done += n
	if m.done == m.rg.trials {
		// Every trial of the range is delivered and merged; whatever
		// terminal label the job ends up with afterwards (e.g. "failed"
		// because a server-side archive close failed) cannot change the
		// results, and resubmitting a zero-trial remainder would be
		// rejected anyway.
		return true, true, state, nil
	}
	if err == nil && state == "" {
		// A clean EOF without the trailer (e.g. a trailer-stripping
		// proxy between coordinator and server): the status endpoint
		// disambiguates a finished job from a cut connection.
		if st, ok := m.c.jobStatus(ctx, jobURL); ok && st.State.Terminal() {
			state = st.State
		}
	}
	if err == nil && !state.Terminal() {
		err = errors.New("stream ended without a job-state trailer")
	}
	return n > 0, false, state, err
}

// durable is true: delivered results are merged and never recomputed.
func (*streamMode) durable() bool { return true }

// submit POSTs one shard's job request to the given server and returns
// the accepted status.
func (c *Coordinator) submit(ctx context.Context, base string, req server.JobRequest) (server.Status, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return server.Status{}, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimSuffix(base, "/")+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return server.Status{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.client().Do(hreq)
	if err != nil {
		return server.Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return server.Status{}, &throttleError{
			server:     base,
			retryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
			msg:        string(bytes.TrimSpace(msg)),
		}
	}
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return server.Status{}, fmt.Errorf("submit to %s: HTTP %d: %s", base, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var st server.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return server.Status{}, fmt.Errorf("submit to %s: %w", base, err)
	}
	return st, nil
}

// readResults streams the active job's results from line offset from, pushing
// each record into ch and checking that indices continue at wantNext. It
// returns the number of records pushed and, when the stream ended at a
// terminal job state, that state from the X-Job-State trailer; a
// transport-level interruption returns the error instead.
func (c *Coordinator) readResults(ctx context.Context, jobURL string, from, wantNext int, ch chan<- dispersion.Trial) (int, server.State, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/results?from=%d", jobURL, from), nil)
	if err != nil {
		return 0, "", err
	}
	resp, err := c.client().Do(hreq)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return 0, "", errJobGone
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return 0, "", fmt.Errorf("results: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	n := 0
	// A plain reader, not a Scanner: record=true result lines have no
	// a-priori size bound, and a fixed cap would misread an oversized
	// line as a transport failure.
	br := bufio.NewReaderSize(resp.Body, 64*1024)
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr == io.EOF {
			if len(bytes.TrimSpace(line)) != 0 {
				// Data after the last newline: the connection was cut
				// mid-line; the reconnect re-requests the line whole.
				return n, "", fmt.Errorf("stream cut mid-line at record %d", from+n)
			}
			return n, server.State(resp.Trailer.Get(server.TrailerJobState)), nil
		}
		if rerr != nil {
			return n, "", rerr
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var rec sink.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return n, "", fmt.Errorf("bad result line %d: %w", from+n, err)
		}
		if rec.Trial != wantNext+n {
			return n, "", fmt.Errorf("stream out of order: got trial %d, want %d", rec.Trial, wantNext+n)
		}
		select {
		case ch <- dispersion.Trial{Index: rec.Trial, Result: rec.Result}:
		case <-ctx.Done():
			return n, "", ctx.Err()
		}
		n++
	}
}

// cancelJob best-effort DELETEs an abandoned job. It runs on its own
// short-lived context, because cleanup is needed exactly when the run
// context is already dead.
func (c *Coordinator) cancelJob(jobURL string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodDelete, jobURL, nil)
	if err != nil {
		return
	}
	resp, err := c.client().Do(hreq)
	if err != nil {
		return
	}
	resp.Body.Close()
}

// jobStatus polls the job's status endpoint, best-effort: ok is false
// when the job is unreachable or undecodable.
func (c *Coordinator) jobStatus(ctx context.Context, jobURL string) (server.Status, bool) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, jobURL, nil)
	if err != nil {
		return server.Status{}, false
	}
	resp, err := c.client().Do(hreq)
	if err != nil {
		return server.Status{}, false
	}
	defer resp.Body.Close()
	var st server.Status
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&st) != nil {
		return server.Status{}, false
	}
	return st, true
}

// jobError fetches the dead job's failure message for error reporting,
// best-effort: it returns "" when the status is unreachable.
func (c *Coordinator) jobError(ctx context.Context, jobURL string) string {
	st, ok := c.jobStatus(ctx, jobURL)
	if !ok || st.Error == "" {
		return ""
	}
	return ": " + st.Error
}
