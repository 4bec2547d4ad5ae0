package bench

import (
	"fmt"

	"dispersion/internal/exact"
	"dispersion/internal/graph"
	"dispersion/internal/stats"
)

func init() {
	register(Experiment{
		ID:     "E24",
		Title:  "Exact ground truth at small n",
		Source: "Theorem 4.1 (exact check), simulator validation",
		Claim:  "subset-DP exact values match the simulator, and the exact parallel CDF is dominated by the exact sequential CDF pointwise",
		Run:    runExactGroundTruth,
	})
}

func runExactGroundTruth(cfg Config) (*Report, error) {
	trials := cfg.scaled(4000, 800)
	tbl := &Table{Columns: []string{"graph", "E[τ_seq] exact", "E[τ_seq] sim", "E[τ_par] exact", "E[τ_par] sim", "exact domination"}}
	graphs := []*graph.CSR{graph.Complete(6), graph.Cycle(6), graph.Star(6), graph.Path(5)}
	pass := true
	const T = 800
	for gi, g := range graphs {
		es, err := exact.NewSequential(g, 0)
		if err != nil {
			return nil, err
		}
		ep, err := exact.NewParallel(g, 0)
		if err != nil {
			return nil, err
		}
		seqExact, tailS := es.ExpectedDispersion(T)
		parExact, tailP := ep.ExpectedDispersion(T)
		if tailS > 1e-8 || tailP > 1e-8 {
			return nil, fmt.Errorf("bench: exact horizon too short on %s", g.Name())
		}
		base := uint64(0x2400 + gi*4)
		seqSim := stats.Summarize(SampleDispersion(g, 0, "sequential", trials, cfg.Seed, base))
		parSim := stats.Summarize(SampleDispersion(g, 0, "parallel", trials, cfg.Seed, base+1))

		// Pointwise CDF domination, zero Monte-Carlo error.
		sc := es.DispersionCDF(T)
		pc := ep.DispersionCDF(T)
		dom := true
		for i := range sc {
			if pc[i] > sc[i]+1e-9 {
				dom = false
				break
			}
		}
		tbl.AddRow(g.Name(), fm(seqExact), fm(seqSim.Mean), fm(parExact), fm(parSim.Mean), fmt.Sprint(dom))
		if !dom ||
			!within(seqSim.Mean, seqExact, 0.05) || !within(parSim.Mean, parExact, 0.05) {
			pass = false
		}
		cfg.printf("E24 %s done\n", g.Name())
	}
	return &Report{
		Table:   tbl,
		Pass:    pass,
		Summary: "simulator agrees with subset-DP exact values; Theorem 4.1 domination holds exactly (no sampling error)",
	}, nil
}
