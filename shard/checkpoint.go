package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"

	"dispersion"
	"dispersion/server"
	"dispersion/sink"
)

// wal is the coordinator's write-ahead log, one type for both modes: a
// JSONL file pinned to its job request by a "<path>.meta" sidecar,
// appended in order and fsynced every syncEvery appends and on Close when
// appends are still unsynced. Run
// logs one sink.Record per merged result, in trial order, before handing
// the result to the caller; RunSummary logs one summaryRecord per
// completed shard. Either way a killed coordinator resumes from the last
// durable prefix without recomputing it.
type wal struct {
	f         *os.File
	enc       *json.Encoder
	syncEvery int
	unsynced  int
}

// syncEvery is how many result records may accumulate between fsyncs of
// Run's log. A crash loses at most this many trials of progress — they
// are simply recomputed on resume — while million-trial runs avoid a sync
// per line. RunSummary's log syncs every record: shard completions are
// rare, so durability per record costs nothing.
const syncEvery = 4096

// openWAL pins the log at path to req (see pinRequest), opens it,
// creating it if absent, and decodes every intact line into a T handed
// to replay with its record number, in file order. A torn or corrupt
// final line — the footprint of a crash mid-append — is dropped, not an
// error: the file is truncated to the last intact record and appends
// continue there. openWAL returns the append handle and the number of
// records replayed; an error from replay aborts the open and is returned
// as is.
func openWAL[T any](path string, req server.JobRequest, syncEvery int, replay func(n int, rec T) error) (*wal, int, error) {
	if err := pinRequest(path, req); err != nil {
		return nil, 0, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*wal, int, error) {
		f.Close()
		return nil, 0, err
	}
	br := bufio.NewReaderSize(f, 1<<20)
	var good int64 // byte offset just past the last intact record
	n := 0
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			// No newline before EOF: an interrupted final append.
			break
		}
		if err != nil {
			return fail(fmt.Errorf("checkpoint %s: %w", path, err))
		}
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			var rec T
			if err := json.Unmarshal(trimmed, &rec); err != nil {
				if _, perr := br.Peek(1); perr == io.EOF {
					// A corrupt *final* line is a torn write too.
					break
				}
				return fail(fmt.Errorf("checkpoint %s: bad record %d: %w", path, n, err))
			}
			if err := replay(n, rec); err != nil {
				return fail(err)
			}
			n++
		}
		good += int64(len(line))
	}
	if err := f.Truncate(good); err != nil {
		return fail(fmt.Errorf("checkpoint %s: %w", path, err))
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		return fail(fmt.Errorf("checkpoint %s: %w", path, err))
	}
	return &wal{f: f, enc: json.NewEncoder(f), syncEvery: syncEvery}, n, nil
}

// resumeResults opens Run's result log and replays every durable record
// to each, which may be nil. The log must hold the contiguous trial
// prefix req.FirstTrial, req.FirstTrial+1, ... of req's range.
func resumeResults(path string, req server.JobRequest, each func(dispersion.Trial) error) (*wal, int, error) {
	return openWAL(path, req, syncEvery, func(n int, rec sink.Record) error {
		if rec.Trial != req.FirstTrial+n || n >= req.Trials {
			return fmt.Errorf("checkpoint %s: holds trial %d at record %d, want trial %d of %d — not this run's checkpoint",
				path, rec.Trial, n, req.FirstTrial+n, req.Trials)
		}
		if each == nil {
			return nil
		}
		return each(dispersion.Trial{Index: rec.Trial, Result: rec.Result})
	})
}

// resumeSummaries opens RunSummary's log and returns the summaries of
// every durably completed shard, keyed by shard index. Each record must
// match a range of the current split — a pure function of (FirstTrial,
// Trials, shard count), so a mismatch means the log belongs to another
// configuration — and no shard may appear twice.
func resumeSummaries(path string, req server.JobRequest, ranges []trialRange) (*wal, map[int]json.RawMessage, error) {
	have := map[int]json.RawMessage{}
	w, _, err := openWAL(path, req, 1, func(n int, rec summaryRecord) error {
		if rec.Shard < 0 || rec.Shard >= len(ranges) || ranges[rec.Shard] != (trialRange{first: rec.First, trials: rec.Trials}) {
			return fmt.Errorf("summary checkpoint %s: record %d covers shard %d trials [%d,%d), which is not part of this split — was the shard count changed?",
				path, n, rec.Shard, rec.First, rec.First+rec.Trials)
		}
		if _, dup := have[rec.Shard]; dup {
			return fmt.Errorf("summary checkpoint %s: duplicate record for shard %d", path, rec.Shard)
		}
		have[rec.Shard] = rec.Summary
		return nil
	})
	return w, have, err
}

// pinRequest binds the checkpoint to the logical job request via a
// "<path>.meta" sidecar: written on first use, compared on resume. A log
// with records but no sidecar is unidentifiable and rejected.
func pinRequest(path string, req server.JobRequest) error {
	want, err := json.Marshal(req)
	if err != nil {
		return err
	}
	metaPath := path + ".meta"
	existing, err := os.ReadFile(metaPath)
	switch {
	case err == nil:
		if !bytes.Equal(bytes.TrimSpace(existing), want) {
			return fmt.Errorf("checkpoint %s belongs to a different job request (see %s)", path, metaPath)
		}
		return nil
	case errors.Is(err, fs.ErrNotExist):
		if st, serr := os.Stat(path); serr == nil && st.Size() > 0 {
			return fmt.Errorf("checkpoint %s has records but no %s sidecar identifying its request", path, metaPath)
		}
		return os.WriteFile(metaPath, append(want, '\n'), 0o644)
	default:
		return err
	}
}

// Append logs one record, fsyncing once syncEvery records have
// accumulated since the last sync.
func (w *wal) Append(rec any) error {
	if err := w.enc.Encode(rec); err != nil {
		return err
	}
	if w.unsynced++; w.unsynced < w.syncEvery {
		return nil
	}
	w.unsynced = 0
	return w.f.Sync()
}

// Close syncs any unsynced appends and closes the log, reporting any
// error — the caller must not claim durable completion over a failed
// sync. Close is idempotent and a no-op on a nil log, so callers can both
// defer it for cleanup and check it on success.
func (w *wal) Close() error {
	if w == nil || w.f == nil {
		return nil
	}
	f := w.f
	w.f = nil
	var serr error
	if w.unsynced > 0 {
		serr = f.Sync()
	}
	cerr := f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
