package block

import (
	"testing"
	"testing/quick"

	"dispersion/internal/core"
	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

func testGraphs() []*graph.CSR {
	return []*graph.CSR{
		graph.Path(9),
		graph.Cycle(10),
		graph.Complete(12),
		graph.Star(8),
		graph.CompleteBinaryTree(3),
		graph.Lollipop(10),
		graph.Grid([]int{3, 4}, false),
		graph.CliqueWithHair(9),
	}
}

func recordSequential(t *testing.T, g *graph.CSR, seed uint64) *Block {
	t.Helper()
	res, err := core.Run(core.SequentialInto, g, 0, core.Options{Record: true}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func recordParallel(t *testing.T, g *graph.CSR, seed uint64) *Block {
	t.Helper()
	res, err := core.Run(core.ParallelInto, g, 0, core.Options{Record: true}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPaperWorkedExample(t *testing.T) {
	// The example block on V = {1,2,3,4} from Section 4, 0-indexed here.
	L := &Block{Rows: [][]int32{
		{0},
		{0, 1},
		{0, 1, 1, 2},
		{0, 1, 0, 1, 2, 3},
	}}
	// CP_(4,1) in the paper = CP(3, 1) here: the tail of row 3 moves onto
	// the row ending at vertex 1 (row 1).
	got, err := L.CP(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := &Block{Rows: [][]int32{
		{0},
		{0, 1, 0, 1, 2, 3},
		{0, 1, 1, 2},
		{0, 1},
	}}
	if !got.Equal(want) {
		t.Fatalf("CP(3,1) = %v, want %v", got.Rows, want.Rows)
	}
	// The paper's identity positions: CP at each row's final cell.
	for _, pos := range [][2]int{{0, 0}, {1, 1}, {2, 3}, {3, 5}} {
		id, err := L.CP(pos[0], pos[1])
		if err != nil {
			t.Fatal(err)
		}
		if !id.Equal(L) {
			t.Errorf("CP(%d,%d) should be the identity", pos[0], pos[1])
		}
	}
}

func TestCPPreservesInvariants(t *testing.T) {
	L := &Block{Rows: [][]int32{
		{0},
		{0, 1},
		{0, 1, 1, 2},
		{0, 1, 0, 1, 2, 3},
	}}
	got, err := L.CP(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalLength() != L.TotalLength() {
		t.Error("CP changed total length")
	}
	if err := got.CheckEndpoints(); err != nil {
		t.Errorf("CP broke property (2): %v", err)
	}
}

func TestFromResultRequiresRecording(t *testing.T) {
	res, err := core.Run(core.SequentialInto, graph.Path(5), 0, core.Options{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromResult(res); err == nil {
		t.Fatal("FromResult accepted unrecorded run")
	}
}

func TestRecordedRunsSatisfyProperties(t *testing.T) {
	for _, g := range testGraphs() {
		seq := recordSequential(t, g, 42)
		if !seq.IsSequential() {
			t.Errorf("%s: recorded sequential run violates property (3)", g.Name())
		}
		if err := seq.CheckWalks(g, 0, false); err != nil {
			t.Errorf("%s: %v", g.Name(), err)
		}
		par := recordParallel(t, g, 43)
		if !par.IsParallel() {
			t.Errorf("%s: recorded parallel run violates property (4)", g.Name())
		}
		if err := par.CheckWalks(g, 0, false); err != nil {
			t.Errorf("%s: %v", g.Name(), err)
		}
	}
}

func TestSequentialIsNotUsuallyParallel(t *testing.T) {
	// Sanity: the two validity notions are genuinely different. On the
	// path from an endpoint, the sequential block settles vertices in
	// order, which read column-wise gives early first-occurrences.
	g := graph.Complete(16)
	found := false
	for seed := uint64(0); seed < 20 && !found; seed++ {
		seq := recordSequential(t, g, seed)
		if !seq.IsParallel() {
			found = true
		}
	}
	if !found {
		t.Error("every sequential K_16 block was also parallel-valid; checker suspect")
	}
}

func TestStPProducesValidParallel(t *testing.T) {
	for _, g := range testGraphs() {
		for seed := uint64(0); seed < 5; seed++ {
			b := recordSequential(t, g, seed)
			orig := b.Clone()
			if err := b.StP(); err != nil {
				t.Fatalf("%s seed %d: StP: %v", g.Name(), seed, err)
			}
			if !b.IsParallel() {
				t.Errorf("%s seed %d: StP output violates property (4)", g.Name(), seed)
			}
			if b.TotalLength() != orig.TotalLength() {
				t.Errorf("%s: StP changed total length %d -> %d",
					g.Name(), orig.TotalLength(), b.TotalLength())
			}
			if err := b.CheckWalks(g, 0, false); err != nil {
				t.Errorf("%s: StP output not walks: %v", g.Name(), err)
			}
			// Lemma 4.6: the longest row cannot shrink.
			if b.LongestRow() < orig.LongestRow() {
				t.Errorf("%s: StP shrank longest row %d -> %d (Lemma 4.6 violated)",
					g.Name(), orig.LongestRow(), b.LongestRow())
			}
		}
	}
}

func TestPtSProducesValidSequential(t *testing.T) {
	for _, g := range testGraphs() {
		for seed := uint64(0); seed < 5; seed++ {
			b := recordParallel(t, g, seed)
			orig := b.Clone()
			if err := b.PtS(); err != nil {
				t.Fatalf("%s seed %d: PtS: %v", g.Name(), seed, err)
			}
			if !b.IsSequential() {
				t.Errorf("%s seed %d: PtS output violates property (3)", g.Name(), seed)
			}
			if b.TotalLength() != orig.TotalLength() {
				t.Errorf("%s: PtS changed total length", g.Name())
			}
			if err := b.CheckWalks(g, 0, false); err != nil {
				t.Errorf("%s: PtS output not walks: %v", g.Name(), err)
			}
		}
	}
}

func TestBijectionRoundTrip(t *testing.T) {
	// Remark 4.5: StP and PtS are mutually inverse.
	for _, g := range testGraphs() {
		for seed := uint64(0); seed < 5; seed++ {
			seq := recordSequential(t, g, seed)
			work := seq.Clone()
			if err := work.StP(); err != nil {
				t.Fatal(err)
			}
			if err := work.PtS(); err != nil {
				t.Fatal(err)
			}
			if !work.Equal(seq) {
				t.Errorf("%s seed %d: PtS(StP(L)) != L", g.Name(), seed)
			}

			par := recordParallel(t, g, seed)
			work = par.Clone()
			if err := work.PtS(); err != nil {
				t.Fatal(err)
			}
			if err := work.StP(); err != nil {
				t.Fatal(err)
			}
			if !work.Equal(par) {
				t.Errorf("%s seed %d: StP(PtS(L)) != L", g.Name(), seed)
			}
		}
	}
}

func TestBijectionRoundTripQuick(t *testing.T) {
	g := graph.Lollipop(12)
	if err := quick.Check(func(seed uint64) bool {
		res, err := core.Run(core.SequentialInto, g, 0, core.Options{Record: true}, rng.New(seed))
		if err != nil {
			return false
		}
		b, err := FromResult(res)
		if err != nil {
			return false
		}
		orig := b.Clone()
		if b.StP() != nil || b.PtS() != nil {
			return false
		}
		return b.Equal(orig)
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLemma46DominationMechanism(t *testing.T) {
	// The coupling behind Theorem 4.1: pairing each sequential block L
	// with StP(L), the parallel longest row dominates the sequential one.
	// Checked across many seeds and graphs (already asserted per-block in
	// TestStPProducesValidParallel; here we additionally confirm strict
	// increase happens sometimes, i.e. the coupling is not vacuous).
	g := graph.Complete(16)
	strict := false
	for seed := uint64(0); seed < 30; seed++ {
		b := recordSequential(t, g, seed)
		before := b.LongestRow()
		if err := b.StP(); err != nil {
			t.Fatal(err)
		}
		if b.LongestRow() > before {
			strict = true
		}
	}
	if !strict {
		t.Error("StP never strictly increased the longest row over 30 trials")
	}
}

func TestPtSOrderRandomPriority(t *testing.T) {
	// The σ-twisted PtS of Theorem 4.2 must also produce valid sequential
	// blocks for any order fixing row 0 first.
	g := graph.Grid([]int{3, 3}, false)
	r := rng.New(7)
	for trial := 0; trial < 10; trial++ {
		b := recordParallel(t, g, uint64(trial))
		order := make([]int, len(b.Rows))
		for i := range order {
			order[i] = i
		}
		// Shuffle rows 1..n-1, keeping row 0 (the settled origin) first.
		r.Shuffle(len(order)-1, func(i, j int) {
			order[i+1], order[j+1] = order[j+1], order[i+1]
		})
		if err := b.PtSOrder(order); err != nil {
			t.Fatalf("PtSOrder: %v", err)
		}
		if err := b.CheckEndpoints(); err != nil {
			t.Errorf("PtSOrder broke property (2): %v", err)
		}
		if err := b.CheckWalks(g, 0, false); err != nil {
			t.Errorf("PtSOrder output not walks: %v", err)
		}
	}
}

func TestReorder(t *testing.T) {
	b := &Block{Rows: [][]int32{{0}, {0, 1}, {0, 1, 2}}}
	nb, err := b.Reorder([]int{0, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(nb.Rows[1]) != 3 || len(nb.Rows[2]) != 2 {
		t.Errorf("Reorder misplaced rows: %v", nb.Rows)
	}
	if _, err := b.Reorder([]int{0, 0, 1}); err == nil {
		t.Error("duplicate permutation entry accepted")
	}
	if _, err := b.Reorder([]int{0, 1}); err == nil {
		t.Error("short permutation accepted")
	}
}

func makeR(n int, length int, r *rng.Source) []int32 {
	R := make([]int32, length)
	for i := range R {
		R[i] = int32(1 + r.Intn(n-1))
	}
	return R
}

func TestPtURProducesValidUniform(t *testing.T) {
	for _, g := range testGraphs() {
		for seed := uint64(0); seed < 5; seed++ {
			par := recordParallel(t, g, seed)
			r := rng.New(seed + 1000)
			// Generous R: expected ticks needed is about n * total length.
			R := makeR(g.N(), int(par.TotalLength())*g.N()*4+100, r)
			u, err := par.PtUR(R)
			if err != nil {
				t.Fatalf("%s seed %d: PtUR: %v", g.Name(), seed, err)
			}
			if !u.IsUniform() {
				t.Errorf("%s seed %d: PtUR output fails uniform validity", g.Name(), seed)
			}
			if u.TotalLength() != par.TotalLength() {
				t.Errorf("%s: PtUR changed total length %d -> %d",
					g.Name(), par.TotalLength(), u.TotalLength())
			}
			if err := u.CheckWalks(g, 0, false); err != nil {
				t.Errorf("%s: PtUR output not walks: %v", g.Name(), err)
			}
			// Theorem 4.7 mechanism: Cut & Paste from a parallel block
			// cannot increase row length, so uniform longest <= parallel.
			if u.LongestRow() > par.LongestRow() {
				t.Errorf("%s: uniform longest row %d exceeds parallel %d",
					g.Name(), u.LongestRow(), par.LongestRow())
			}
		}
	}
}

func TestPtURInverseIsStP(t *testing.T) {
	// Theorem 4.7's bijection: StP transforms the R-uniform block back
	// into the original parallel block, for any R (StP is oblivious to
	// the ordering).
	for _, g := range testGraphs() {
		for seed := uint64(0); seed < 3; seed++ {
			par := recordParallel(t, g, seed)
			r := rng.New(seed + 500)
			R := makeR(g.N(), int(par.TotalLength())*g.N()*4+100, r)
			u, err := par.PtUR(R)
			if err != nil {
				t.Fatalf("%s: %v", g.Name(), err)
			}
			back := u.Clone()
			if err := back.StP(); err != nil {
				t.Fatalf("%s: StP on uniform block: %v", g.Name(), err)
			}
			if !back.Equal(par) {
				t.Errorf("%s seed %d: StP(PtUR(L, R)) != L", g.Name(), seed)
			}
		}
	}
}

func TestPtURTimingConsistency(t *testing.T) {
	g := graph.Complete(10)
	par := recordParallel(t, g, 3)
	r := rng.New(4)
	R := makeR(g.N(), int(par.TotalLength())*g.N()*4+100, r)
	u, err := par.PtUR(R)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range u.Rows {
		if u.T[i][0] != 0 {
			t.Fatalf("row %d: T[0] = %d, want 0", i, u.T[i][0])
		}
		for j := 1; j < len(row); j++ {
			if u.T[i][j] <= u.T[i][j-1] {
				t.Fatalf("row %d: ticks not increasing at %d: %v", i, j, u.T[i][:j+1])
			}
			// Tick must belong to this particle in R.
			if R[u.T[i][j]-1] != int32(i) {
				t.Fatalf("row %d move %d at tick %d, but R assigns particle %d",
					i, j, u.T[i][j], R[u.T[i][j]-1])
			}
		}
	}
}

func TestPtURExhaustedR(t *testing.T) {
	g := graph.Complete(8)
	par := recordParallel(t, g, 5)
	_, err := par.PtUR(makeR(g.N(), 2, rng.New(6)))
	if err == nil {
		t.Fatal("short R accepted")
	}
}

func TestPtURRejectsBadParticle(t *testing.T) {
	g := graph.Complete(8)
	par := recordParallel(t, g, 5)
	if _, err := par.PtUR([]int32{0, 1, 2}); err == nil {
		t.Fatal("R containing particle 0 accepted")
	}
	if _, err := par.PtUR([]int32{9}); err == nil {
		t.Fatal("R containing out-of-range particle accepted")
	}
}

func TestLazyBlocksSupported(t *testing.T) {
	// Section 4.4: the coupling machinery applies verbatim to lazy walks.
	g := graph.Cycle(9)
	res, err := core.Run(core.SequentialInto, g, 0, core.Options{Record: true, Lazy: true}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CheckWalks(g, 0, true); err != nil {
		t.Fatal(err)
	}
	if !b.IsSequential() {
		t.Error("lazy sequential block fails property (3)")
	}
	orig := b.Clone()
	if err := b.StP(); err != nil {
		t.Fatal(err)
	}
	if !b.IsParallel() || b.TotalLength() != orig.TotalLength() {
		t.Error("StP on lazy block misbehaved")
	}
	if err := b.PtS(); err != nil {
		t.Fatal(err)
	}
	if !b.Equal(orig) {
		t.Error("lazy round trip failed")
	}
}

func TestCheckWalksCatchesCorruption(t *testing.T) {
	g := graph.Path(6)
	b := recordSequential(t, g, 1)
	b.Rows[2][0] = 3 // wrong origin
	if err := b.CheckWalks(g, 0, false); err == nil {
		t.Error("corrupted origin not caught")
	}
	b = recordSequential(t, g, 1)
	if len(b.Rows[2]) > 1 {
		b.Rows[2][1] = b.Rows[2][0] // illegal stay in non-lazy block
		if err := b.CheckWalks(g, 0, false); err == nil {
			t.Error("illegal stay not caught")
		}
	}
}

func TestCheckEndpointsCatchesDuplicates(t *testing.T) {
	b := &Block{Rows: [][]int32{{0, 1}, {0, 1}}}
	if err := b.CheckEndpoints(); err == nil {
		t.Error("duplicate endpoints not caught")
	}
}

func TestTotalLengthAndLongestRow(t *testing.T) {
	b := &Block{Rows: [][]int32{{0}, {0, 1, 2}, {0, 1}}}
	if b.TotalLength() != 3 {
		t.Errorf("TotalLength = %d, want 3", b.TotalLength())
	}
	if b.LongestRow() != 2 {
		t.Errorf("LongestRow = %d, want 2", b.LongestRow())
	}
}

func TestCPErrors(t *testing.T) {
	b := &Block{Rows: [][]int32{{0}, {0, 1}}}
	if _, err := b.CP(0, 5); err == nil {
		t.Error("out-of-range CP accepted")
	}
}
