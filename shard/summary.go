package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"dispersion/agg"
	"dispersion/server"
)

// RunSummary is the coordinator's sketch-merge mode: instead of pulling
// every per-trial result over the network, it submits each shard as a
// summary_only job, long-polls the per-shard summary endpoints, and
// merges the returned sketches into one agg.Summary covering trials
// [req.FirstTrial, req.FirstTrial+req.Trials). Network traffic and
// coordinator memory are O(shards · sketch), not O(trials) — and
// because every sketch in dispersion/agg is a pure function of its
// trial multiset, the merged summary marshals to bytes identical to
// the summary of one contiguous unsharded run of the same request.
//
// req.SummaryOnly is forced on for every shard submission. Shards go
// through Run's retry loop: a failed or vanished shard job is
// resubmitted on the next server, with the no-progress budget reset
// whenever a poll sees the running job's completed-trial count rise. A
// shard whose jobs end failed, cancelled or gone Retries times in a row
// fails the run with the last job's error.
//
// With Checkpoint set, each completed shard's summary is appended to a
// JSONL write-ahead log (pinned to the request by the same
// "<Checkpoint>.meta" sidecar mechanism as Run's result log) and
// fsynced, so a killed coordinator resumes by merging the logged
// shards and recomputing only the rest. The log is not interchangeable
// with Run's result log — use a distinct path per mode.
func (c *Coordinator) RunSummary(ctx context.Context, req server.JobRequest) (*agg.Summary, error) {
	req.SummaryOnly = true
	ranges, err := c.plan(req)
	if err != nil {
		return nil, err
	}
	have := map[int]json.RawMessage{}
	var log *wal
	if c.Checkpoint != "" {
		if log, have, err = resumeSummaries(c.Checkpoint, req, ranges); err != nil {
			return nil, err
		}
		defer log.Close()
	}

	var todo []int // indices of the shards the log does not hold
	for i := range ranges {
		if _, ok := have[i]; !ok {
			todo = append(todo, i)
		}
	}
	type shardDone struct {
		idx     int
		summary json.RawMessage
		err     error
	}
	done := make(chan shardDone)
	err = fanOut(ctx, len(todo), func(ctx context.Context, i int) {
		m := &summaryMode{c: c, rg: ranges[todo[i]]}
		err := c.runShard(ctx, todo[i], m.rg, req, m)
		select {
		case done <- shardDone{idx: todo[i], summary: m.summary, err: err}:
		case <-ctx.Done():
		}
	}, func() error {
		for range todo {
			var d shardDone
			select {
			case d = <-done:
			case <-ctx.Done():
				return ctx.Err()
			}
			rg := ranges[d.idx]
			if d.err != nil {
				return shardError(d.idx, rg, d.err)
			}
			if log != nil {
				rec := summaryRecord{Shard: d.idx, First: rg.first, Trials: rg.trials, Summary: d.summary}
				if err := log.Append(rec); err != nil {
					return fmt.Errorf("shard: summary checkpoint: %w", err)
				}
			}
			have[d.idx] = d.summary
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	merged := agg.NewSummary()
	for i := range ranges {
		var s agg.Summary
		if err := json.Unmarshal(have[i], &s); err != nil {
			return nil, fmt.Errorf("shard: shard %d summary: %w", i, err)
		}
		if err := merged.Merge(&s); err != nil {
			return nil, fmt.Errorf("shard: merge shard %d: %w", i, err)
		}
	}
	if err := log.Close(); err != nil {
		return nil, fmt.Errorf("shard: summary checkpoint: %w", err)
	}
	return merged, nil
}

// summaryMode follows a shard's summary_only jobs by long-polling their
// summary endpoint. Every (re)submission computes the whole range: a
// sketch cannot be resumed from a partial one.
type summaryMode struct {
	c       *Coordinator
	rg      trialRange
	polled  int             // the active job's completed count at its last poll
	summary json.RawMessage // the shard's summary once complete
}

// submitRange returns the whole range.
func (m *summaryMode) submitRange() trialRange {
	m.polled = 0 // a new job counts its trials from zero
	return m.rg
}

// follow long-polls the job's summary until the job is terminal. Each
// job recomputes the whole range, so progress is the active job's own:
// a poll advances the shard when the running job's completed count has
// risen since its last poll. The count reported with a failed or
// cancelled state is not progress, because the next job starts over.
func (m *summaryMode) follow(ctx context.Context, jobURL string) (bool, bool, server.State, error) {
	sr, err := m.c.fetchSummary(ctx, jobURL)
	switch {
	case err != nil:
		return false, false, "", err
	case sr.State == server.StateDone && sr.Completed == m.rg.trials:
		m.summary = sr.Summary
		return true, true, sr.State, nil
	case !sr.State.Terminal():
		// The long poll returned early (SummaryMaxWait elapsed, or its
		// connection was cut before the job finished); poll again.
		advanced := sr.Completed > m.polled
		m.polled = max(m.polled, sr.Completed)
		return advanced, false, sr.State, fmt.Errorf("summary poll ended with job still %s", sr.State)
	}
	return false, false, sr.State, nil
}

// durable is false: every resubmission starts the range over.
func (*summaryMode) durable() bool { return false }

// fetchSummary long-polls one job's summary endpoint with ?wait=1.
func (c *Coordinator) fetchSummary(ctx context.Context, jobURL string) (server.SummaryResponse, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, jobURL+"/summary?wait=1", nil)
	if err != nil {
		return server.SummaryResponse{}, err
	}
	resp, err := c.client().Do(hreq)
	if err != nil {
		return server.SummaryResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return server.SummaryResponse{}, errJobGone
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return server.SummaryResponse{}, fmt.Errorf("summary: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var sr server.SummaryResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return server.SummaryResponse{}, fmt.Errorf("summary: %w", err)
	}
	return sr, nil
}

// summaryRecord is one line of the sketch-merge write-ahead log: a
// completed shard's range and summary JSON.
type summaryRecord struct {
	Shard   int             `json:"shard"`
	First   int             `json:"first"`
	Trials  int             `json:"trials"`
	Summary json.RawMessage `json:"summary"`
}
