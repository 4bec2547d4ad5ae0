package sink_test

import (
	"bytes"
	"context"
	"encoding/csv"
	"reflect"
	"testing"

	"dispersion"
	"dispersion/sink"
)

// fuzzSeeds returns writer output for a recorded discrete job and a
// continuous-time job, in the format write produces, plus each output
// torn mid-line.
func fuzzSeeds(f *testing.F, write func(job dispersion.Job, w *bytes.Buffer)) {
	for _, job := range []dispersion.Job{
		{Process: "sequential", Spec: "cycle:6", Trials: 3, Options: []dispersion.Option{dispersion.WithRecord()}},
		{Process: "ct-uniform", Spec: "complete:5", Trials: 2},
	} {
		var buf bytes.Buffer
		write(job, &buf)
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()*2/3])
	}
	f.Add([]byte("null\n"))
	f.Add([]byte(""))
}

// runInto streams a job's trials into w.
func runInto(f *testing.F, job dispersion.Job, w sink.Writer) {
	if err := (dispersion.Engine{Seed: 3}).Run(context.Background(), job, sink.Tee(w)); err != nil {
		f.Fatal(err)
	}
}

// FuzzReadJSONL feeds arbitrary bytes to ReadJSONL. It must never panic;
// whatever it accepts has a Result and a non-negative index on every
// trial, and survives a write/read round trip through NewJSONL unchanged.
func FuzzReadJSONL(f *testing.F) {
	fuzzSeeds(f, func(job dispersion.Job, w *bytes.Buffer) { runInto(f, job, sink.NewJSONL(w)) })
	f.Add([]byte(`{"trial":0,"result":{"Process":"parallel","Dispersion":7,"TotalSteps":21}}` + "\n"))
	f.Add([]byte("{}\n" + `{"trial":3}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		trials, err := sink.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := sink.NewJSONL(&buf)
		for i, tr := range trials {
			if tr.Result == nil || tr.Index < 0 {
				t.Fatalf("trial %d accepted as %+v", i, tr)
			}
			if err := w.Write(tr); err != nil {
				t.Fatalf("write back trial %d: %v", i, err)
			}
		}
		again, err := sink.ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-read of written trials: %v", err)
		}
		if !reflect.DeepEqual(again, trials) {
			t.Fatalf("round trip changed the trials\n got %+v\nwant %+v", again, trials)
		}
	})
}

// FuzzReadCSV feeds arbitrary bytes to ReadCSV. It must never panic, and
// whatever it accepts yields one Row per data record.
func FuzzReadCSV(f *testing.F) {
	fuzzSeeds(f, func(job dispersion.Job, w *bytes.Buffer) {
		cw := sink.NewCSV(w)
		runInto(f, job, cw)
		if err := cw.Flush(); err != nil {
			f.Fatal(err)
		}
	})
	f.Add([]byte("trial,process,continuous,makespan,dispersion,total_steps,time,truncated,unsettled\n" +
		"0,parallel,false,188,188,1122,0,false,0\n"))
	f.Add([]byte("trial,process,continuous,makespan,dispersion,total_steps,time,truncated,unsettled,capacity\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := sink.ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		cr := csv.NewReader(bytes.NewReader(data))
		cr.FieldsPerRecord = -1
		records, err := cr.ReadAll()
		if err != nil {
			t.Fatalf("ReadCSV accepted input encoding/csv rejects: %v", err)
		}
		if want := max(len(records)-1, 0); len(rows) != want {
			t.Fatalf("got %d rows for %d data records", len(rows), want)
		}
	})
}
