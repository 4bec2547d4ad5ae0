package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"strings"
	"testing"

	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

var updateSamplePaths = flag.Bool("update-samplepaths", false,
	"rewrite testdata/samplepaths.golden from the current code")

const samplePathGolden = "testdata/samplepaths.golden"

// samplePathSeeds is the number of seeds hashed into each digest.
const samplePathSeeds = 40

// samplePathOptions are the option sets the pin test crosses with every
// process. Options a process does not use (RandomPriority in a Sequential
// process, Capacity in a unit-capacity one) are part of the pin too: they
// must stay ignored.
func samplePathOptions(n int) []struct {
	name string
	opt  Options
} {
	rule := func(v int32, step int64) bool { return step >= 2 || v%2 == 0 }
	caps := make([]int, n)
	for v := range caps {
		caps[v] = 1 + v%3
	}
	return []struct {
		name string
		opt  Options
	}{
		{"plain", Options{}},
		{"lazy", Options{Lazy: true}},
		{"record", Options{Record: true}},
		{"record-lazy", Options{Record: true, Lazy: true}},
		{"particles-3", Options{Particles: 3}},
		{"random-origins", Options{RandomOrigins: true}},
		{"random-origins-record", Options{RandomOrigins: true, Record: true}},
		{"random-priority", Options{RandomPriority: true}},
		{"maxsteps-17", Options{MaxSteps: 17}},
		{"maxsteps-17-record", Options{MaxSteps: 17, Record: true}},
		{"settle-0.3", Options{SettleParam: 0.3}},
		{"settle-3", Options{SettleParam: 3}},
		{"rule", Options{Rule: rule}},
		{"rule-record", Options{Rule: rule, Record: true}},
		{"capacity-3", Options{Capacity: 3}},
		{"capacity-3-record", Options{Capacity: 3, Record: true}},
		{"capacities", Options{Capacities: caps}},
	}
}

// samplePathDigest runs one process under one option set for every seed,
// reusing one Scratch and one CTResult as the engine does, and hashes every
// Result field (trajectories included), the continuous-time fields, any
// error, and one trailing draw that exposes a changed draw count.
func samplePathDigest(run func(*rng.Source, *Scratch, *CTResult) error, sparse bool) string {
	h := sha256.New()
	s := NewScratch()
	s.forceSparse = sparse
	var res CTResult
	for seed := uint64(1); seed <= samplePathSeeds; seed++ {
		r := rng.New(seed)
		if err := run(r, s, &res); err != nil {
			fmt.Fprintf(h, "error %v\n", err)
			continue
		}
		hashResult(h, &res)
		putWords(h, r.Uint64())
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func hashResult(h hash.Hash, res *CTResult) {
	var truncated uint64
	if res.Truncated {
		truncated = 1
	}
	putWords(h, uint64(res.Dispersion), uint64(res.TotalSteps), truncated,
		uint64(res.Capacity), math.Float64bits(res.Time))
	putWords(h, uint64(len(res.Steps)))
	for _, x := range res.Steps {
		putWords(h, uint64(x))
	}
	putInt32s(h, res.SettledAt)
	putInt32s(h, res.SettleOrder)
	putWords(h, uint64(len(res.SettleClock)))
	for _, x := range res.SettleClock {
		putWords(h, uint64(x))
	}
	putWords(h, uint64(len(res.SettleTimes)))
	for _, x := range res.SettleTimes {
		putWords(h, math.Float64bits(x))
	}
	if res.Trajectories == nil {
		putWords(h, math.MaxUint64)
	} else {
		putWords(h, uint64(len(res.Trajectories)))
		for _, tr := range res.Trajectories {
			putInt32s(h, tr)
		}
	}
}

func putWords(h hash.Hash, xs ...uint64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
}

func putInt32s(h hash.Hash, xs []int32) {
	putWords(h, uint64(len(xs)))
	var b [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		h.Write(b[:])
	}
}

// samplePathRunners wraps each of the nine *Into processes to fill a
// CTResult, so the continuous-time processes hash their clocks too.
func samplePathRunners() []struct {
	name string
	run  func(graph.Graph, Options, *rng.Source, *Scratch, *CTResult) error
} {
	plain := func(f intoRunner) func(graph.Graph, Options, *rng.Source, *Scratch, *CTResult) error {
		return func(g graph.Graph, opt Options, r *rng.Source, s *Scratch, res *CTResult) error {
			res.Time, res.SettleTimes = 0, nil
			return f(g, 0, opt, r, s, &res.Result)
		}
	}
	ct := func(f func(graph.Graph, int, Options, *rng.Source, *Scratch, *CTResult) error) func(graph.Graph, Options, *rng.Source, *Scratch, *CTResult) error {
		return func(g graph.Graph, opt Options, r *rng.Source, s *Scratch, res *CTResult) error {
			return f(g, 0, opt, r, s, res)
		}
	}
	return []struct {
		name string
		run  func(graph.Graph, Options, *rng.Source, *Scratch, *CTResult) error
	}{
		{"sequential", plain(SequentialInto)},
		{"parallel", plain(ParallelInto)},
		{"uniform", plain(UniformInto)},
		{"ct-uniform", ct(CTUniformInto)},
		{"ct-sequential", ct(CTSequentialInto)},
		{"geom", plain(SequentialGeomInto)},
		{"threshold", plain(SequentialThresholdInto)},
		{"cap-seq", plain(CapacitySequentialInto)},
		{"cap-par", plain(CapacityParallelInto)},
	}
}

// samplePathDigests computes every pinned digest in a fixed order.
func samplePathDigests() (names, digests []string) {
	graphs := []graph.Graph{
		graph.Complete(9),
		graph.Cycle(10),
		graph.Grid([]int{4, 4}, true),
		graph.Star(7),
	}
	for _, p := range samplePathRunners() {
		for _, g := range graphs {
			for _, o := range samplePathOptions(g.N()) {
				for _, sparse := range []bool{false, true} {
					occ := "dense"
					if sparse {
						occ = "sparse"
					}
					run := func(r *rng.Source, s *Scratch, res *CTResult) error {
						return p.run(g, o.opt, r, s, res)
					}
					names = append(names, strings.Join([]string{p.name, g.Name(), o.name, occ}, "/"))
					digests = append(digests, samplePathDigest(run, sparse))
				}
			}
		}
	}
	return names, digests
}

// TestSamplePathsPinned pins every process's sample paths across commits:
// each (process, graph, option set, occupancy backend) entry hashes 40
// seeded runs and must match the committed digest table, so a refactor of
// the process loops cannot change a single draw or result field. Rewrite
// the table only for an intended change of sample paths, with
// go test ./internal/core -run TestSamplePathsPinned -update-samplepaths.
func TestSamplePathsPinned(t *testing.T) {
	names, digests := samplePathDigests()
	if *updateSamplePaths {
		var b strings.Builder
		for i, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, digests[i])
		}
		if err := os.WriteFile(samplePathGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(samplePathGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	i := 0
	for ; sc.Scan(); i++ {
		name, want, ok := strings.Cut(sc.Text(), " ")
		if !ok || i >= len(names) || names[i] != name {
			t.Fatalf("digest table line %d is %q; want entry %q (regenerate the table)", i+1, sc.Text(), names[min(i, len(names)-1)])
		}
		if digests[i] != want {
			t.Fatalf("first divergent sample path: %s: digest %s, pinned %s", name, digests[i], want)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(names) {
		t.Fatalf("digest table has %d entries; want %d", i, len(names))
	}
}
