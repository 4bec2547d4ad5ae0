package core

import (
	"testing"

	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

func TestOdometerAccounting(t *testing.T) {
	g := graph.Cycle(12)
	res, err := Run(SequentialInto, g, 0, Options{Record: true}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOdometer(g, res)
	if err != nil {
		t.Fatal(err)
	}
	// Total arrivals = total steps + one initial placement per particle.
	want := res.TotalSteps + int64(g.N())
	if o.Total() != want {
		t.Fatalf("odometer total %d, want %d", o.Total(), want)
	}
	// Every vertex hosts exactly one settler.
	for v, s := range o.Settling {
		if s != 1 {
			t.Fatalf("vertex %d has %d settlers", v, s)
		}
	}
	// Every vertex was visited at least once (it hosts a settler).
	for v, c := range o.Visits {
		if c < 1 {
			t.Fatalf("vertex %d never visited", v)
		}
	}
}

func TestOdometerRequiresRecording(t *testing.T) {
	g := graph.Path(5)
	res, err := Run(SequentialInto, g, 0, Options{}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewOdometer(g, res); err == nil {
		t.Fatal("unrecorded run accepted")
	}
}

func TestOdometerOriginIsBusiest(t *testing.T) {
	// With a common origin every particle is placed there, so the origin
	// dominates the visit counts on a star (all walks alternate through
	// the centre... origin = centre).
	g := graph.Star(16)
	res, err := Run(SequentialInto, g, 0, Options{Record: true}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOdometer(g, res)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := o.Max()
	if v != 0 {
		t.Fatalf("busiest vertex %d, want the centre 0", v)
	}
}

func TestExcursionCountPath(t *testing.T) {
	// On the path with the left half marked, crossings happen exactly at
	// the marked/unmarked boundary; count must match a manual recount.
	g := graph.Path(10)
	res, err := Run(SequentialInto, g, 0, Options{Record: true}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	inSet := make([]bool, 10)
	for v := 0; v < 5; v++ {
		inSet[v] = true
	}
	got, err := ExcursionCount(res, inSet)
	if err != nil {
		t.Fatal(err)
	}
	var manual int64
	for _, traj := range res.Trajectories {
		for i := 1; i < len(traj); i++ {
			if inSet[traj[i-1]] != inSet[traj[i]] {
				manual++
			}
		}
	}
	if got != manual || got < 1 {
		t.Fatalf("excursions %d, manual %d", got, manual)
	}
}

func TestExcursionCountRequiresRecording(t *testing.T) {
	g := graph.Path(5)
	res, _ := Run(SequentialInto, g, 0, Options{}, rng.New(5))
	if _, err := ExcursionCount(res, make([]bool, 5)); err == nil {
		t.Fatal("unrecorded run accepted")
	}
}
