package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dispersion"
	"dispersion/server"
	"dispersion/sink"
)

// FuzzWALResume feeds arbitrary bytes to the write-ahead log as a result
// log (summary=false) or a summary log (summary=true). Resume must fail
// or accept a prefix of valid records, never panic, and leave the file
// ending at a record boundary: a second resume accepts exactly the same
// records, and an append after resume is read back as the next record.
func FuzzWALResume(f *testing.F) {
	req := server.JobRequest{Process: "parallel", Spec: "complete:8", Trials: 4, FirstTrial: 2, Seed: 1}
	ranges := splitRange(req.FirstTrial, req.Trials, 2)
	line := func(rec any) string {
		b, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		return string(b) + "\n"
	}
	results := ""
	for i := range req.Trials {
		results += line(sink.Record{Trial: req.FirstTrial + i, Result: &dispersion.Result{Process: "parallel", Dispersion: int64(i)}})
	}
	summaries := ""
	for i, rg := range ranges {
		summaries += line(summaryRecord{Shard: i, First: rg.first, Trials: rg.trials, Summary: json.RawMessage(`{"count":1}`)})
	}
	for _, seed := range []struct {
		summary bool
		log     string
	}{
		{false, ""},
		{false, results},
		{false, results[:len(results)-7]},     // torn final line
		{false, results + `{"trial":6,"res`},  // torn append
		{false, "\n" + results + "garbage\n"}, // corrupt final line
		{false, "garbage\n" + results},        // corrupt interior line
		{false, line(sink.Record{Trial: 3})},  // out of order
		{true, summaries},
		{true, summaries[:len(summaries)-3]},              // torn final line
		{true, summaries + summaries},                     // duplicate shard
		{true, `{"shard":1,"first":0,"trials":9}` + "\n"}, // not this split
		{true, "{\n" + summaries},                         // corrupt interior line
	} {
		f.Add(seed.summary, []byte(seed.log))
	}

	meta, err := json.Marshal(req)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, summary bool, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.jsonl")
		if err := os.WriteFile(path+".meta", meta, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// resume opens the log, checks what it accepted, appends the next
		// valid record when there is room, and returns the accepted
		// records in a comparable form.
		resume := func(appendNext bool) ([]string, error) {
			var got []string
			var w *wal
			var err error
			var next any
			if summary {
				var have map[int]json.RawMessage
				if w, have, err = resumeSummaries(path, req, ranges); err != nil {
					return nil, err
				}
				for i := range ranges {
					s, ok := have[i]
					if !ok && next == nil {
						next = summaryRecord{Shard: i, First: ranges[i].first, Trials: ranges[i].trials, Summary: json.RawMessage(`{}`)}
					}
					if ok {
						got = append(got, fmt.Sprintf("%d %s", i, s))
					}
				}
			} else {
				var n int
				w, n, err = resumeResults(path, req, func(tr dispersion.Trial) error {
					if tr.Index != req.FirstTrial+len(got) {
						t.Fatalf("replayed trial %d after %d records", tr.Index, len(got))
					}
					b, err := json.Marshal(tr.Result)
					got = append(got, string(b))
					return err
				})
				if err != nil {
					return nil, err
				}
				if n != len(got) || n > req.Trials {
					t.Fatalf("resume counted %d records, replayed %d of %d", n, len(got), req.Trials)
				}
				if n < req.Trials {
					next = sink.Record{Trial: req.FirstTrial + n}
				}
			}
			if appendNext && next != nil {
				if err := w.Append(next); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			return got, nil
		}

		got, err := resume(false)
		if err != nil {
			return
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, after) {
			t.Fatalf("resume rewrote the log: %q -> %q", data, after)
		}
		if len(after) > 0 && after[len(after)-1] != '\n' {
			t.Fatalf("resumed log ends mid-record: %q", after)
		}
		records := 0
		for _, l := range bytes.Split(after, []byte("\n")) {
			if len(bytes.TrimSpace(l)) > 0 {
				records++
			}
		}
		if records != len(got) {
			t.Fatalf("resumed log keeps %d records, resume accepted %d", records, len(got))
		}

		again, err := resume(true)
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("second resume: %v, %d records, want the first resume's %d", err, len(again), len(got))
		}
		third, err := resume(false)
		if err != nil {
			t.Fatalf("resume after append: %v", err)
		}
		if want := min(len(got)+1, len(ranges)); summary && len(third) != want {
			t.Fatalf("after append resume holds %d summaries, want %d", len(third), want)
		}
		if want := min(len(got)+1, req.Trials); !summary && len(third) != want {
			t.Fatalf("after append resume holds %d results, want %d", len(third), want)
		}
	})
}
