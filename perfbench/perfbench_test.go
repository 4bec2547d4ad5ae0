package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"dispersion/server"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	v, ok := percentile(mk(100), 0.9)
	if !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, valid %v; want 90, valid", v, ok)
	}
	if _, ok := percentile(mk(99), 0.9); ok {
		t.Error("p90 of 99 samples has only 9 beyond it but reads as valid")
	}
	v, ok = percentile(mk(21), 0.5)
	if !ok || v != 11 {
		t.Errorf("p50 of 1..21 = %v, valid %v; want 11, valid", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reads as valid")
	}
}

// TestRSSWindowEndsAtKthCompletion: the resident-set peak is read until
// the rssJobs-th job to complete, in completion order, and over the whole
// phase when there is no such job.
func TestRSSWindowEndsAtKthCompletion(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(startMs, latMs int) jobTiming {
		return jobTiming{start: t0.Add(time.Duration(startMs) * time.Millisecond), latency: time.Duration(latMs) * time.Millisecond}
	}
	// Concurrent clients: completions at 50, 30, 70 and 40 ms.
	p := &phase{start: t0, elapsed: time.Second, timings: []jobTiming{at(0, 50), at(10, 20), at(20, 50), at(35, 5)}}
	var warned []string
	warn := func(s string) { warned = append(warned, s) }
	for k, wantMs := range map[int]int{1: 30, 2: 40, 3: 50, 4: 70, 0: 1000, 5: 1000} {
		warned = nil
		p.rssJobs = k
		if got := p.rssUntil(warn).Sub(t0); got != time.Duration(wantMs)*time.Millisecond {
			t.Errorf("rssJobs %d: window ends at %v, want %d ms", k, got, wantMs)
		}
		if short := k > len(p.timings); short != (len(warned) == 1) {
			t.Errorf("rssJobs %d: warnings %q", k, warned)
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "shard", Name: "shard.run", Start: 0, End: 100},
		// Two concurrent shard streams overlapping on [30,40), and a body
		// closed after the parent returned: covered = [10,60) + [90,100).
		{ID: 2, Parent: 1, Layer: "server", Name: "server.http", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "server", Name: "server.http", Start: 30, End: 60},
		{ID: 4, Parent: 1, Layer: "server", Name: "server.http", Start: 90, End: 120},
		// A grandchild counts against its parent only.
		{ID: 5, Parent: 2, Layer: "sink", Name: "sink.decode", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 40, 2: 20, 3: 30, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	byLayer := layerSelf(spans)
	if got := byLayer["server"] * 1e9; got < 79.5 || got > 80.5 {
		t.Errorf("server self time = %v ns, want 80", got)
	}
	if n, m := nameStats(spans, "server.http"); n != 3 || m*1e9 < 29.5 || m*1e9 > 30.5 {
		t.Errorf("server.http spans: %d with mean %v s, want 3 with mean 30 ns", n, m)
	}
}

func TestFailedRatioCountsRejectionsAndChecks(t *testing.T) {
	rejecting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer rejecting.Close()
	var tl tally
	s := &svcRun{client: rejecting.Client(), tally: &tl}

	// A direct submission answered 429 is a failed operation.
	_, err := s.submit(context.Background(), rejecting.URL, "client-0", server.JobRequest{Process: "sequential", Spec: "complete:8", Trials: 1}, nil, 0, 0)
	var se *statusError
	if !errors.As(err, &se) || se.code != http.StatusTooManyRequests {
		t.Fatalf("submit against a 429 server: %v, want a 429 status error", err)
	}
	tl.op(err)

	// So is a coordinator exchange answered 429, even one it would retry.
	obs := &observer{base: rejecting.Client().Transport, tenant: "client-0"}
	resp, err := (&http.Client{Transport: obs}).Get(rejecting.URL + "/v1/jobs/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(obs.errs) != 1 {
		t.Fatalf("observer recorded %d failed exchanges, want 1", len(obs.errs))
	}
	tl.op(obs.errs[0])

	tl.op(nil)
	tl.check(true, "fine")
	tl.check(false, "output differs")
	if tl.attempted != 5 || tl.failed != 3 {
		t.Fatalf("tally %d failed of %d, want 3 of 5", tl.failed, tl.attempted)
	}
	if r := tl.failedRatio(); r != 0.6 {
		t.Errorf("failed ratio %v, want 0.6", r)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the command must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []metricDef                  `json:"end_to_end"`
	PerLayer  []metricDef                  `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	ws := workloads(false)
	if len(ws) != len(bj.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json has %d", len(ws), len(bj.Workloads))
	}
	for i, w := range ws {
		if w.Name != bj.Workloads[i].Name || w.Why != bj.Workloads[i].Why {
			t.Errorf("workload %d is %q (%q), BENCHMARK.json has %q (%q)", i, w.Name, w.Why, bj.Workloads[i].Name, bj.Workloads[i].Why)
		}
	}
	for _, c := range []struct {
		what      string
		got, want []metricDef
	}{{"end_to_end", endToEnd, bj.EndToEnd}, {"per_layer", perLayer, bj.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: command has %d metrics, BENCHMARK.json %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: command has %+v, BENCHMARK.json %+v", c.what, i, c.got[i], c.want[i])
			}
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that the result line is correct and names exactly the metrics
// BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				rc := runConfig{workload: w.Name, seed: 7, seconds: 0.4, trace: traced, outDir: t.TempDir(), tiny: true, nproc: 2}
				res, err := execute(context.Background(), rc)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := report(&out, rc, res); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last struct {
					Correct           bool
					Attempted, Failed int64
					Metrics           map[string]metricValue
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !last.Correct || last.Failed != 0 || last.Attempted == 0 {
					t.Errorf("result correct=%v failed=%d attempted=%d:\n%s", last.Correct, last.Failed, last.Attempted, out.String())
				}
				want := bj.EndToEnd
				if traced {
					want = bj.PerLayer
				}
				if len(last.Metrics) != len(want) {
					t.Errorf("%d metrics printed, want %d", len(last.Metrics), len(want))
				}
				for _, d := range want {
					if m, ok := last.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: printed %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
					}
				}
			})
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "0.1", "--out", t.TempDir()},
		{"--workload", "kernels", "--trace", "2"},
		{"--workload", "kernels", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run %v: exit %d with output %q, want a non-zero exit and no result", args, code, out.String())
		}
	}
}
