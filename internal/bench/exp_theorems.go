package bench

import (
	"fmt"
	"math"

	"dispersion"
	"dispersion/internal/block"
	"dispersion/internal/bounds"
	"dispersion/internal/graph"
	"dispersion/internal/markov"
	"dispersion/internal/rng"
	"dispersion/internal/stats"
)

func init() {
	register(Experiment{
		ID:     "E10",
		Title:  "Stochastic domination and total-steps equality",
		Source: "Theorem 4.1",
		Claim:  "τ_seq ⪯ τ_par (ECDF dominance) while total steps are equal in distribution (KS test)",
		Run:    runDomination,
	})
	register(Experiment{
		ID:     "E11",
		Title:  "Lazy slowdown factor",
		Source: "Theorem 4.3",
		Claim:  "lazy dispersion = (2+o(1))·non-lazy, for both processes",
		Run:    runLazyFactor,
	})
	register(Experiment{
		ID:     "E12",
		Title:  "Continuous-time Uniform vs Parallel",
		Source: "Theorem 4.8",
		Claim:  "τ_CTU = (1+o(1))·τ_par w.h.p. and in expectation",
		Run:    runCTU,
	})
	register(Experiment{
		ID:     "E13",
		Title:  "Non-concentration gadgets",
		Source: "Proposition 2.1",
		Claim:  "clique+hair: Ω(1) mass at O(E[D]/n); clique+hair-on-pimple: Ω(1/n) mass at Ω(E[D]·n)",
		Run:    runConcentration,
	})
	register(Experiment{
		ID:     "E14",
		Title:  "Hitting time is not a lower bound",
		Source: "Proposition 3.8",
		Claim:  "binary tree + n^(1/2-ε) path: t_seq = O(n log² n) while t_hit = Ω(n^(3/2-ε))",
		Run:    runHittingGap,
	})
	register(Experiment{
		ID:     "E15",
		Title:  "No least-action principle",
		Source: "Proposition A.1",
		Claim:  "the modified stopping rule ρ̃ disperses in O(n log n) vs Ω(n²) for the standard rule on clique+hair",
		Run:    runLeastAction,
	})
	register(Experiment{
		ID:     "E16",
		Title:  "Hitting-time upper bound",
		Source: "Theorem 3.1, Corollary 3.2",
		Claim:  "Pr[τ > 6·t_hit·log2 n] <= 1/n²; worst cases are Θ(n³ log n) general / Θ(n² log n) regular",
		Run:    runUpperBounds,
	})
	register(Experiment{
		ID:     "E17",
		Title:  "Tree lower bounds and the star",
		Source: "Theorem 3.7, Theorem 3.6",
		Claim:  "t_seq(T) >= 2n-3 for all trees; t_seq(S_n) ≈ 2·κ_cc·n makes it tight up to a small constant",
		Run:    runTreeBounds,
	})
	register(Experiment{
		ID:     "E18",
		Title:  "Cut & Paste bijection mechanics",
		Source: "Lemma 4.4, Lemma 4.6, Remark 4.5",
		Claim:  "StP/PtS are inverse bijections preserving total length; StP never shortens the longest row",
		Run:    runCutPaste,
	})
	register(Experiment{
		ID:     "E19",
		Title:  "Uniform-IDLA domination",
		Source: "Theorem 4.7",
		Claim:  "the Uniform-IDLA longest walk is stochastically dominated by the Parallel longest walk",
		Run:    runUniformDomination,
	})
}

func runDomination(cfg Config) (*Report, error) {
	tbl := &Table{Columns: []string{"graph", "E[τ_seq]", "E[τ_par]", "ECDF seq⪯par", "MW p (seq<par)", "KS p (total steps)"}}
	trials := cfg.scaled(500, 120)
	graphs := []*graph.CSR{graph.Complete(48), graph.Cycle(24), graph.CompleteBinaryTree(5)}
	pass := true
	var lastP float64
	for gi, g := range graphs {
		base := uint64(0x1000 + gi*16)
		seq := SampleDispersion(g, 0, "sequential", trials, cfg.Seed, base)
		par := SampleDispersion(g, 0, "parallel", trials, cfg.Seed, base+1)
		dom := stats.NewECDF(seq).DominatedBy(stats.NewECDF(par), 3/math.Sqrt(float64(trials)))
		_, mwP := stats.MannWhitneyU(seq, par)
		seqTot := SampleTotalSteps(g, 0, "sequential", trials, cfg.Seed, base+2)
		parTot := SampleTotalSteps(g, 0, "parallel", trials, cfg.Seed, base+3)
		p := stats.KSPValue(stats.KSStatistic(seqTot, parTot), trials, trials)
		lastP = p
		same := p > 0.01
		tbl.AddRow(g.Name(), fm(stats.Summarize(seq).Mean), fm(stats.Summarize(par).Mean),
			fmt.Sprint(dom), fm(mwP), fm(p))
		// Domination must hold (ECDF), the one-sided rank test must
		// confirm seq < par, and KS must accept equal total-step laws.
		if !dom || !same || mwP > 0.05 {
			pass = false
		}
		cfg.printf("E10 %s done\n", g.Name())
	}
	return &Report{
		Table:   tbl,
		Pass:    pass,
		Summary: fmt.Sprintf("domination holds on every family and KS accepts equal total-step laws (last p=%.3f)", lastP),
	}, nil
}

func runLazyFactor(cfg Config) (*Report, error) {
	tbl := &Table{Columns: []string{"graph", "process", "plain", "lazy", "ratio"}}
	trials := cfg.scaled(200, 100)
	type job struct {
		g *graph.CSR
		p string
	}
	jobs := []job{
		{graph.Cycle(48), "sequential"}, {graph.Cycle(48), "parallel"},
		{graph.Complete(96), "sequential"}, {graph.Complete(96), "parallel"},
	}
	pass := true
	var worst float64 = 2
	for ji, j := range jobs {
		base := uint64(0x1100 + ji*4)
		plain := MeanDispersion(j.g, 0, j.p, trials, cfg.Seed, base)
		lazy := MeanDispersion(j.g, 0, j.p, trials, cfg.Seed, base+1, dispersion.WithLazy())
		ratio := lazy.Mean / plain.Mean
		tbl.AddRow(j.g.Name(), j.p, fm(plain.Mean), fm(lazy.Mean), fm(ratio))
		// The dispersion time has Θ(n)-wide fluctuations (the last
		// settlement is geometric), so finite-trial ratios wobble.
		if ratio < 1.6 || ratio > 2.4 {
			pass = false
		}
		if math.Abs(ratio-2) > math.Abs(worst-2) {
			worst = ratio
		}
		cfg.printf("E11 %s/%s done\n", j.g.Name(), j.p)
	}
	return &Report{
		Table:   tbl,
		Pass:    pass,
		Summary: fmt.Sprintf("lazy/plain ratios cluster at 2 (worst deviation: %.3f)", worst),
	}, nil
}

func runCTU(cfg Config) (*Report, error) {
	tbl := &Table{Columns: []string{"graph", "E[τ_par]", "E[τ_CTU]", "ratio"}}
	trials := cfg.scaled(200, 50)
	graphs := []*graph.CSR{graph.Complete(128), graph.Hypercube(7)}
	pass := true
	var lastRatio float64
	for gi, g := range graphs {
		base := uint64(0x1200 + gi*4)
		par := MeanDispersion(g, 0, "parallel", trials, cfg.Seed, base)
		ctu := MeanDispersion(g, 0, "ct-uniform", trials, cfg.Seed, base+1)
		lastRatio = ctu.Mean / par.Mean
		tbl.AddRow(g.Name(), fm(par.Mean), fm(ctu.Mean), fm(lastRatio))
		if lastRatio < 0.8 || lastRatio > 1.25 {
			pass = false
		}
		cfg.printf("E12 %s done\n", g.Name())
	}
	return &Report{
		Table:   tbl,
		Pass:    pass,
		Summary: fmt.Sprintf("CTU/parallel ratio ≈ 1 (last %.3f): the coupling of Theorem 4.8 is visible at finite n", lastRatio),
	}, nil
}

func runConcentration(cfg Config) (*Report, error) {
	trials := cfg.scaled(1500, 300)
	n := 96
	tbl := &Table{Columns: []string{"graph", "median", "mean", "P[D <= 20n]", "P[D >= n²/8]"}}

	g1 := graph.CliqueWithHair(n)
	d1 := SampleDispersion(g1, 0, "parallel", trials, cfg.Seed, 0x1301)
	s1 := stats.Summarize(d1)
	fracSmall := stats.Fraction(d1, func(x float64) bool { return x <= 20*float64(n) })
	fracBig1 := stats.Fraction(d1, func(x float64) bool { return x >= float64(n*n)/8 })
	tbl.AddRow(g1.Name(), fm(s1.Median), fm(s1.Mean), fm(fracSmall), fm(fracBig1))

	h := int(float64(n) / math.Log(float64(n)))
	g2 := graph.CliqueWithHairOnPimple(n, h)
	d2 := SampleDispersion(g2, graph.PimpleVertex(n), "parallel", trials, cfg.Seed, 0x1302)
	s2 := stats.Summarize(d2)
	fracSmall2 := stats.Fraction(d2, func(x float64) bool { return x <= 20*float64(n) })
	fracBig2 := stats.Fraction(d2, func(x float64) bool { return x >= float64(n*n)/8 })
	tbl.AddRow(g2.Name(), fm(s2.Median), fm(s2.Mean), fm(fracSmall2), fm(fracBig2))

	// G1: constant probability of being tiny relative to the mean (the
	// mean is inflated by the Ω(n²) branch), i.e. both branches have
	// constant mass. G2: the big branch has small (≈1/n·poly) mass but
	// must be present over enough trials.
	pass := fracSmall > 0.3 && fracBig1 > 0.1 && fracSmall2 > 0.8 &&
		fracBig2 > 0 && fracBig2 < 0.2
	return &Report{
		Table: tbl,
		Pass:  pass,
		Summary: fmt.Sprintf("hair: bimodal (%.2f small, %.2f large); pimple: rare heavy tail (%.4f at Ω(n²))",
			fracSmall, fracBig1, fracBig2),
		Notes: []string{"neither dispersion time concentrates: Proposition 2.1's two regimes are both visible"},
	}, nil
}

func runHittingGap(cfg Config) (*Report, error) {
	tbl := &Table{Columns: []string{"n", "path len", "t_hit (exact)", "t_seq (sim)", "t_hit/t_seq"}}
	levelss := []int{8, 9, 10}
	if cfg.Scale >= 0.9 {
		levelss = []int{9, 10, 11}
	}
	trials := cfg.scaled(50, 15)
	var ratios []float64
	for _, lv := range levelss {
		treeN := 1<<lv - 1
		k := int(math.Sqrt(float64(treeN))) // ε -> 0 end of the family
		g := graph.BinaryTreeWithPath(lv, k)
		n := g.N()
		// t_hit is exact on trees: worst pair is deep-leaf <-> path end.
		far := n - 1 // path far end
		var thit float64
		for _, u := range []int{treeN - 1, 0, treeN} {
			if h := markov.TreeHit(g, u, far); h > thit {
				thit = h
			}
			if h := markov.TreeHit(g, far, u); h > thit {
				thit = h
			}
		}
		seq := MeanDispersion(g, 0, "sequential", trials, cfg.Seed, uint64(0x1400+lv))
		ratio := thit / seq.Mean
		ratios = append(ratios, ratio)
		tbl.AddRow(fmt.Sprint(n), fmt.Sprint(k), fm(thit), fm(seq.Mean), fm(ratio))
		cfg.printf("E14 levels=%d done\n", lv)
	}
	// The gap t_hit/t_seq ~ sqrt(n)/log²n must grow with n.
	growing := ratios[len(ratios)-1] > ratios[0]*1.05
	exceeds := ratios[len(ratios)-1] > 1
	return &Report{
		Table: tbl,
		Pass:  growing && exceeds,
		Summary: fmt.Sprintf("t_hit/t_seq grows (%.2f -> %.2f): hitting time fails as a dispersion lower bound",
			ratios[0], ratios[len(ratios)-1]),
	}, nil
}

func runLeastAction(cfg Config) (*Report, error) {
	n := 96
	g := graph.CliqueWithHair(n)
	tip := int32(graph.HairTip(n))
	threshold := int64(3 * float64(n) * math.Log(float64(n)))
	rule := func(v int32, step int64) bool {
		return v == tip || step >= threshold
	}
	trials := cfg.scaled(400, 100)
	std := MeanDispersion(g, 0, "sequential", trials, cfg.Seed, 0x1501)
	mod := MeanDispersion(g, 0, "sequential", trials, cfg.Seed, 0x1502, dispersion.WithSettleRule(rule))
	tbl := &Table{Columns: []string{"rule", "E[τ_seq]", "±"}}
	tbl.AddRow("standard (settle immediately)", fm(std.Mean), fm(std.StdErr))
	tbl.AddRow("ρ̃ (hold out for the hair)", fm(mod.Mean), fm(mod.StdErr))
	pass := mod.Mean < std.Mean*0.8
	return &Report{
		Table: tbl,
		Pass:  pass,
		Summary: fmt.Sprintf("letting walks run longer SPEEDS dispersion: %.0f -> %.0f (no least-action principle)",
			std.Mean, mod.Mean),
	}, nil
}

func runUpperBounds(cfg Config) (*Report, error) {
	tbl := &Table{Columns: []string{"graph", "t_hit", "bound 6·t_hit·log2 n", "max τ_par observed", "margin"}}
	trials := cfg.scaled(120, 30)
	graphs := []*graph.CSR{
		graph.Complete(64), graph.Cycle(64), graph.Path(64), graph.Star(64),
		graph.Hypercube(6), graph.CompleteBinaryTree(6), graph.Lollipop(32),
		graph.Grid([]int{8, 8}, true), graph.Comb(8, 7), graph.Barbell(16, 8),
	}
	pass := true
	for gi, g := range graphs {
		h, err := markov.NewHitting(g)
		if err != nil {
			return nil, err
		}
		thit, _, _ := h.Max()
		bound := bounds.Theorem31(thit, g.N())
		xs := SampleDispersion(g, 0, "parallel", trials, cfg.Seed, uint64(0x1600+gi))
		worst := stats.Summarize(xs).Max
		tbl.AddRow(g.Name(), fm(thit), fm(bound), fm(worst), fm(bound/worst))
		if worst > bound {
			pass = false
		}
		cfg.printf("E16 %s done\n", g.Name())
	}
	return &Report{
		Table:   tbl,
		Pass:    pass,
		Summary: "every observed dispersion time sits below the Theorem 3.1 ceiling",
		Notes: []string{
			fmt.Sprintf("Corollary 3.2 ceilings at n=64: general %.3g, regular %.3g",
				bounds.Theorem31(bounds.GeneralWorstHitting(64), 64),
				bounds.Theorem31(bounds.RegularWorstHitting(64), 64)),
		},
	}, nil
}

func runTreeBounds(cfg Config) (*Report, error) {
	trials := cfg.scaled(300, 60)
	tbl := &Table{Columns: []string{"tree", "n", "E[τ_seq]", "2n-3", "E[τ_seq]/n"}}
	pass := true

	n := 256
	star := graph.Star(n)
	s := MeanDispersion(star, 0, "sequential", trials, cfg.Seed, 0x1701)
	tbl.AddRow("star", fmt.Sprint(n), fm(s.Mean), fm(bounds.TreeLower(n)), fm(s.Mean/float64(n)))
	twoKcc := 2 * bounds.KappaCC()
	if !within(s.Mean/float64(n), twoKcc, 0.12) {
		pass = false
	}

	r := rng.New(cfg.Seed ^ 0x1702)
	for i := 0; i < 3; i++ {
		rt := graph.RandomTree(64, r)
		rs := MeanDispersion(rt, 0, "sequential", trials, cfg.Seed, uint64(0x1710+i))
		tbl.AddRow(fmt.Sprintf("random tree %d", i), "64", fm(rs.Mean), fm(bounds.TreeLower(64)), fm(rs.Mean/64))
		if rs.Mean < bounds.TreeLower(64)*0.95 {
			pass = false
		}
	}
	return &Report{
		Table: tbl,
		Pass:  pass,
		Summary: fmt.Sprintf("star t_seq/n = %.3f vs 2κ_cc = %.3f; all trees clear the 2n-3 bound",
			s.Mean/float64(n), twoKcc),
	}, nil
}

func runCutPaste(cfg Config) (*Report, error) {
	trials := cfg.scaled(200, 50)
	g := graph.Complete(32)
	type outcome struct {
		roundTrip, lengthKept, dominates bool
		ratio                            float64
	}
	outcomes := make([]outcome, 0, trials)
	xs := make([]float64, 0, trials)
	eachTrial(g, 0, "sequential", trials, cfg.Seed, 0x1801, func(res *dispersion.Result) {
		b, err := block.FromTrajectories(res.Trajectories)
		must(err)
		orig := b.Clone()
		must(b.StP())
		o := outcome{
			lengthKept: b.TotalLength() == orig.TotalLength(),
			dominates:  b.LongestRow() >= orig.LongestRow(),
			ratio:      float64(b.LongestRow()) / float64(orig.LongestRow()),
		}
		must(b.PtS())
		o.roundTrip = b.Equal(orig)
		outcomes = append(outcomes, o)
		xs = append(xs, o.ratio)
	}, dispersion.WithRecord())
	allRT, allLen, allDom := true, true, true
	for _, o := range outcomes {
		allRT = allRT && o.roundTrip
		allLen = allLen && o.lengthKept
		allDom = allDom && o.dominates
	}
	s := stats.Summarize(xs)
	tbl := &Table{Columns: []string{"property", "holds in", "of"}}
	count := func(ok bool) string {
		if ok {
			return fmt.Sprint(trials)
		}
		return "<" + fmt.Sprint(trials)
	}
	tbl.AddRow("PtS(StP(L)) == L", count(allRT), fmt.Sprint(trials))
	tbl.AddRow("total length preserved", count(allLen), fmt.Sprint(trials))
	tbl.AddRow("longest row non-decreasing (Lemma 4.6)", count(allDom), fmt.Sprint(trials))
	return &Report{
		Table: tbl,
		Pass:  allRT && allLen && allDom,
		Summary: fmt.Sprintf("bijection verified on %d recorded runs; mean parallel/sequential longest-row ratio %.3f",
			trials, s.Mean),
	}, nil
}

func runUniformDomination(cfg Config) (*Report, error) {
	trials := cfg.scaled(500, 120)
	tbl := &Table{Columns: []string{"graph", "E[longest] uniform", "E[longest] parallel", "ECDF unif⪯par"}}
	pass := true
	for gi, g := range []*graph.CSR{graph.Complete(64), graph.Cycle(24)} {
		base := uint64(0x1900 + gi*4)
		u := SampleDispersion(g, 0, "uniform", trials, cfg.Seed, base)
		p := SampleDispersion(g, 0, "parallel", trials, cfg.Seed, base+1)
		dom := stats.NewECDF(u).DominatedBy(stats.NewECDF(p), 3/math.Sqrt(float64(trials)))
		tbl.AddRow(g.Name(), fm(stats.Summarize(u).Mean), fm(stats.Summarize(p).Mean), fmt.Sprint(dom))
		if !dom {
			pass = false
		}
		cfg.printf("E19 %s done\n", g.Name())
	}
	return &Report{
		Table:   tbl,
		Pass:    pass,
		Summary: "uniform longest walk is dominated by parallel, per Theorem 4.7",
	}, nil
}
