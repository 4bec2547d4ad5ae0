package bench

import (
	"bytes"
	"strings"
	"testing"

	"dispersion/internal/graph"
)

// smoke is the scale used by tests: small but large enough that the
// qualitative claims (ratios, exponents, dominance) still hold.
var smoke = Config{Seed: 12345, Scale: 0.25}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 24 {
		t.Fatalf("registry has %d experiments, want 24 (E01..E24)", len(all))
	}
	for i, e := range all {
		want := []string{"E01", "E02", "E03", "E04", "E05", "E06", "E07", "E08", "E09",
			"E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19",
			"E20", "E21", "E22", "E23", "E24"}[i]
		if e.ID != want {
			t.Errorf("experiment %d has ID %s, want %s", i, e.ID, want)
		}
		if e.Title == "" || e.Source == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("%s: incomplete metadata", e.ID)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, ok := Get("E99"); ok {
		t.Fatal("unknown experiment found")
	}
	if _, ok := Get("E01"); !ok {
		t.Fatal("E01 missing")
	}
}

// Fast experiments run as individual tests at smoke scale; the heavyweight
// sweeps (E02-E09) are exercised together in TestRunSweepExperiments with
// -short skipping.

func runExp(t *testing.T, id string) *Report {
	t.Helper()
	e, ok := Get(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	rep, err := e.Run(smoke)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if rep.Summary == "" {
		t.Errorf("%s: empty summary", id)
	}
	if rep.Table == nil || len(rep.Table.Rows) == 0 {
		t.Errorf("%s: empty table", id)
	}
	if !rep.Pass {
		t.Errorf("%s: claim check failed: %s", id, rep.Summary)
	}
	return rep
}

func TestE01Clique(t *testing.T)            { runExp(t, "E01") }
func TestE10Domination(t *testing.T)        { runExp(t, "E10") }
func TestE11LazyFactor(t *testing.T)        { runExp(t, "E11") }
func TestE12CTU(t *testing.T)               { runExp(t, "E12") }
func TestE13Concentration(t *testing.T)     { runExp(t, "E13") }
func TestE15LeastAction(t *testing.T)       { runExp(t, "E15") }
func TestE16UpperBounds(t *testing.T)       { runExp(t, "E16") }
func TestE17TreeBounds(t *testing.T)        { runExp(t, "E17") }
func TestE18CutPaste(t *testing.T)          { runExp(t, "E18") }
func TestE19UniformDomination(t *testing.T) { runExp(t, "E19") }
func TestE24ExactGroundTruth(t *testing.T)  { runExp(t, "E24") }

func TestSweepExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep experiments are slow; run without -short")
	}
	for _, id := range []string{"E02", "E03", "E04", "E05", "E06", "E07", "E08", "E09", "E14", "E20", "E21", "E22", "E23"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			runExp(t, id)
		})
	}
}

func TestTableWriteCSV(t *testing.T) {
	tbl := &Table{Columns: []string{"a", "b"}}
	tbl.AddRow("1", "x,y")
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "a,b\n") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, `"x,y"`) {
		t.Fatalf("comma cell not quoted: %q", out)
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{Columns: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "333") {
		t.Fatalf("bad render:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 4 {
		t.Fatalf("want header+rule+2 rows:\n%s", out)
	}
}

func TestScaled(t *testing.T) {
	c := Config{Scale: 0.1}
	if got := c.scaled(100, 5); got != 10 {
		t.Fatalf("scaled(100) at 0.1 = %d", got)
	}
	if got := c.scaled(20, 5); got != 5 {
		t.Fatalf("floor not applied: %d", got)
	}
	c = Config{} // zero scale treated as 1
	if got := c.scaled(100, 5); got != 100 {
		t.Fatalf("zero scale should mean full: %d", got)
	}
}

func TestSamplersDeterministic(t *testing.T) {
	g := graph.Complete(16)
	a := SampleDispersion(g, 0, "sequential", 16, 7, 9)
	b := SampleDispersion(g, 0, "sequential", 16, 7, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sampler not deterministic at %d", i)
		}
	}
	c := SampleDispersion(g, 0, "sequential", 16, 7, 10)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different experiment IDs produced identical samples")
	}
}

func TestTable1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("table1 is slow; run without -short")
	}
	rows, err := Table1(smoke)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("table1 has %d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if r.Tpar < r.Tseq*0.8 {
			t.Errorf("%s: t_par %.0f far below t_seq %.0f (violates Theorem 4.1 trend)",
				r.Family, r.Tpar, r.Tseq)
		}
		if r.Hit <= 0 || r.Cover <= 0 {
			t.Errorf("%s: degenerate analytics", r.Family)
		}
		// Dispersion cannot beat... cover time relates loosely; at least
		// check the Theorem 3.1 style ceiling massively holds.
		if r.Tpar > 6*r.Hit*20 {
			t.Errorf("%s: t_par %.0f implausibly above hitting scale", r.Family, r.Tpar)
		}
	}
	var buf bytes.Buffer
	RenderTable1(rows, &buf)
	if !strings.Contains(buf.String(), "hypercube") {
		t.Error("render missing families")
	}
}

func TestRunAllQuickSubset(t *testing.T) {
	// RunAll plumbing: run a tiny private registry through the renderer.
	var buf bytes.Buffer
	e, _ := Get("E18")
	rep, err := e.Run(smoke)
	if err != nil {
		t.Fatal(err)
	}
	rep.Table.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}
