package shard_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dispersion"
	"dispersion/agg"
	"dispersion/server"
	"dispersion/shard"
)

// directSummary folds the logical job's trials into a summary with one
// contiguous Engine.Run and returns its canonical JSON.
func directSummary(t *testing.T, req server.JobRequest) []byte {
	t.Helper()
	eng := dispersion.Engine{Seed: req.Seed, Experiment: req.Experiment, ReuseResults: true}
	sum := agg.NewSummary()
	err := eng.Run(context.Background(), dispersion.Job{
		Process:    req.Process,
		Spec:       req.Spec,
		Origin:     req.Origin,
		Trials:     req.Trials,
		FirstTrial: req.FirstTrial,
		Options:    req.Options.Build(),
	}, func(tr dispersion.Trial) error {
		sum.Add(tr.Result)
		return nil
	})
	if err != nil {
		t.Fatalf("direct Engine.Run: %v", err)
	}
	b, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runSummaryJSON runs the coordinator's sketch-merge mode and marshals
// the merged summary.
func runSummaryJSON(t *testing.T, c *shard.Coordinator, req server.JobRequest) []byte {
	t.Helper()
	sum, err := c.RunSummary(context.Background(), req)
	if err != nil {
		t.Fatalf("RunSummary: %v", err)
	}
	b, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The sketch-merge acceptance path: shard-merged summaries are
// byte-identical to the contiguous run's summary, for K ∈ {1, 3, 7}.
func TestRunSummaryMatchesContiguous(t *testing.T) {
	servers := newServers(t, 2)
	req := server.JobRequest{
		Process: "parallel", Spec: "torus:8x8", Trials: 23, Seed: 5, Experiment: 2,
	}
	want := directSummary(t, req)
	for _, k := range []int{1, 3, 7} {
		c := &shard.Coordinator{Servers: servers, Shards: k}
		if got := runSummaryJSON(t, c, req); !bytes.Equal(got, want) {
			t.Fatalf("K=%d: merged summary differs from contiguous run:\n%s\n%s", k, got, want)
		}
	}
}

// An offset logical job (FirstTrial > 0) summarizes its exact slice.
func TestRunSummaryOffsetLogicalJob(t *testing.T) {
	servers := newServers(t, 1)
	req := server.JobRequest{
		Process: "sequential", Spec: "complete:32", Trials: 11, FirstTrial: 6, Seed: 9,
	}
	want := directSummary(t, req)
	c := &shard.Coordinator{Servers: servers, Shards: 3}
	if got := runSummaryJSON(t, c, req); !bytes.Equal(got, want) {
		t.Fatal("offset sharded summary diverged from the contiguous slice's summary")
	}
}

// A summary checkpoint resumes: with only a durable prefix of shard
// records, a rerun recomputes the missing shards and merges to the
// identical summary — and a full WAL replays without touching servers.
func TestRunSummaryCheckpointResume(t *testing.T) {
	servers := newServers(t, 2)
	ckpt := filepath.Join(t.TempDir(), "summary.jsonl")
	req := server.JobRequest{
		Process: "uniform", Spec: "complete:24", Trials: 17, Seed: 3, Experiment: 1,
	}
	c := &shard.Coordinator{Servers: servers, Shards: 3, Checkpoint: ckpt}
	want := runSummaryJSON(t, c, req)

	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			lines++
		}
	}
	if lines != 3 {
		t.Fatalf("summary WAL holds %d records, want 3", lines)
	}

	// Truncate the WAL to its first record — the footprint of a
	// coordinator killed after one shard — and rerun.
	firstNL := bytes.IndexByte(data, '\n')
	if err := os.WriteFile(ckpt, data[:firstNL+1], 0o644); err != nil {
		t.Fatal(err)
	}
	if got := runSummaryJSON(t, c, req); !bytes.Equal(got, want) {
		t.Fatal("resumed summary differs from the uninterrupted one")
	}

	// A complete WAL replays without any live server.
	offline := &shard.Coordinator{Servers: []string{"http://127.0.0.1:1"}, Shards: 3, Checkpoint: ckpt, Retries: 1}
	if got := runSummaryJSON(t, offline, req); !bytes.Equal(got, want) {
		t.Fatal("WAL replay differs from the live run")
	}
}

// A WAL written under one shard count is rejected under another, and
// the meta sidecar rejects a different request outright.
func TestRunSummaryCheckpointMismatch(t *testing.T) {
	servers := newServers(t, 1)
	ckpt := filepath.Join(t.TempDir(), "summary.jsonl")
	req := server.JobRequest{
		Process: "sequential", Spec: "complete:16", Trials: 12, Seed: 7,
	}
	c := &shard.Coordinator{Servers: servers, Shards: 3, Checkpoint: ckpt}
	runSummaryJSON(t, c, req)

	// Same request, different split: the WAL's shard ranges no longer
	// exist. (The sidecar pins the request, not the shard count.)
	c2 := &shard.Coordinator{Servers: servers, Shards: 2, Checkpoint: ckpt}
	if _, err := c2.RunSummary(context.Background(), req); err == nil || !strings.Contains(err.Error(), "split") {
		t.Fatalf("shard-count mismatch not rejected: %v", err)
	}

	// Different request: rejected by the sidecar.
	other := req
	other.Seed = 99
	if _, err := c.RunSummary(context.Background(), other); err == nil || !strings.Contains(err.Error(), "different job request") {
		t.Fatalf("request mismatch not rejected: %v", err)
	}
}

// A dead server in the pool is rotated past, same as in result mode.
func TestRunSummaryRotatesDeadServer(t *testing.T) {
	live := newServers(t, 1)
	c := &shard.Coordinator{
		Servers: []string{"http://127.0.0.1:1", live[0]},
		Shards:  2,
	}
	req := server.JobRequest{
		Process: "sequential", Spec: "complete:12", Trials: 8, Seed: 2,
	}
	want := directSummary(t, req)
	if got := runSummaryJSON(t, c, req); !bytes.Equal(got, want) {
		t.Fatal("summary with a dead server in the pool diverged")
	}
}

// A shard whose every job fails after partial progress is not making
// progress: the next job recomputes the whole range, so the completed
// count reported with a failed state does not count, and repeated
// failures at completed=3 exhaust the retry budget instead of
// resubmitting until the context deadline.
func TestRunSummaryPartialProgressExhaustsRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			w.WriteHeader(http.StatusCreated)
			w.Write([]byte(`{"id":"j1","state":"queued"}`))
		case strings.HasSuffix(r.URL.Path, "/summary"):
			w.Write([]byte(`{"state":"failed","completed":3}`))
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c := &shard.Coordinator{Servers: []string{ts.URL}, Shards: 1, Retries: 2, JitterSeed: 1}
	req := server.JobRequest{Process: "sequential", Spec: "complete:16", Trials: 10, Seed: 1}
	_, err := c.RunSummary(ctx, req)
	if err == nil || !strings.Contains(err.Error(), "no progress after 2 attempts") {
		t.Fatalf("err = %v, want retry exhaustion", err)
	}
}

// A summary job that shows progress on an early long-poll return and then
// fails, every time, still exhausts the retry budget: the progress dies
// with each job, so Retries lost jobs in a row end the run with the last
// job's error instead of resubmitting forever.
func TestRunSummaryLostJobsExhaustRetries(t *testing.T) {
	var (
		mu    sync.Mutex
		jobs  int
		polls = map[string]int{}
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/summary")
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			jobs++
			w.WriteHeader(http.StatusCreated)
			fmt.Fprintf(w, `{"id":"j%d","state":"queued"}`, jobs)
		case strings.HasSuffix(r.URL.Path, "/summary"):
			if polls[id]++; polls[id] == 1 {
				w.Write([]byte(`{"state":"running","completed":4}`))
			} else {
				w.Write([]byte(`{"state":"failed","completed":7}`))
			}
		case r.Method == http.MethodGet:
			fmt.Fprintf(w, `{"id":%q,"state":"failed","error":"%s crashed"}`, id, id)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := &shard.Coordinator{Servers: []string{ts.URL}, Shards: 1, Retries: 3, JitterSeed: 1}
	req := server.JobRequest{Process: "sequential", Spec: "complete:16", Trials: 10, Seed: 1}
	_, err := c.RunSummary(ctx, req)
	if err == nil || !strings.Contains(err.Error(), "3 jobs in a row ended unfinished") ||
		!strings.Contains(err.Error(), "j3 crashed") {
		t.Fatalf("err = %v, want the third lost job's error", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if jobs != 3 {
		t.Fatalf("submitted %d jobs, want 3", jobs)
	}
}

// A summary shard whose job is killed after long partial progress — the
// footprint of a server restart — is resubmitted, and the new job, which
// starts the range over, runs to completion: every early long-poll
// return that sees the running job's count rise is progress, even while
// the new job is still behind the point where the old one died.
func TestRunSummaryResubmittedJobFinishes(t *testing.T) {
	m, err := server.NewManager(server.ManagerOptions{EngineWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(m)
	srv.SummaryMaxWait = 100 * time.Millisecond
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		m.Close()
	})
	// The first job dies after over a second of work at the test's usual
	// speed, so its successor needs several early poll returns, and more
	// retry-budget attempts than Retries, to catch up with it.
	req := server.JobRequest{Process: "sequential", Spec: "cycle:64", Trials: summaryKillTrials * 6 / 5, Seed: 8}
	stop := make(chan struct{})
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for {
			for _, st := range m.List() {
				if st.State == server.StateRunning && st.Completed >= summaryKillTrials {
					j, _ := m.Get(st.ID)
					j.Cancel()
					return
				}
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	c := &shard.Coordinator{Servers: []string{ts.URL}, Shards: 1, Retries: 3, JitterSeed: 1}
	sum, err := c.RunSummary(context.Background(), req)
	close(stop)
	<-killed
	if err != nil {
		t.Fatalf("RunSummary after a killed job: %v", err)
	}
	got, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	if want := directSummary(t, req); !bytes.Equal(got, want) {
		t.Fatal("summary with a killed-and-resubmitted shard diverged")
	}
	if jobs := m.List(); len(jobs) != 2 || jobs[0].State != server.StateCancelled {
		t.Fatalf("want one cancelled job and its resubmission, saw %d jobs", len(jobs))
	}
}
