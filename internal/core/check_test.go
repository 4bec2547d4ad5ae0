package core

import (
	"testing"

	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

// Failure injection: every invariant Check enforces must actually trip
// when the corresponding field is corrupted.
func TestCheckCatchesCorruption(t *testing.T) {
	g := graph.Cycle(10)
	fresh := func() *Result {
		res, err := Run(SequentialInto, g, 0, Options{Record: true}, rng.New(77))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	if err := fresh().Check(g); err != nil {
		t.Fatalf("pristine run rejected: %v", err)
	}

	cases := []struct {
		name    string
		corrupt func(*Result)
	}{
		{"double settlement", func(r *Result) { r.SettledAt[2] = r.SettledAt[1] }},
		{"invalid vertex", func(r *Result) { r.SettledAt[3] = 99 }},
		{"negative vertex", func(r *Result) { r.SettledAt[3] = -1 }},
		{"total steps mismatch", func(r *Result) { r.TotalSteps += 5 }},
		{"dispersion mismatch", func(r *Result) { r.Dispersion += 1 }},
		{"clock regression", func(r *Result) {
			r.SettleClock[len(r.SettleClock)-1] = -1
		}},
		{"missing settlement record", func(r *Result) {
			r.SettleOrder = r.SettleOrder[:len(r.SettleOrder)-1]
		}},
		{"trajectory length lie", func(r *Result) {
			r.Trajectories[2] = r.Trajectories[2][:1]
		}},
		{"trajectory teleport", func(r *Result) {
			if len(r.Trajectories[4]) > 2 {
				r.Trajectories[4][1] = (r.Trajectories[4][0] + 5) % 10
			} else {
				r.Trajectories[4] = []int32{0, 5}
				r.Steps[4] = 1
				// keep totals consistent so only the walk check fires
				r.TotalSteps = 0
				for _, s := range r.Steps {
					r.TotalSteps += s
				}
				r.Dispersion = 0
				for _, s := range r.Steps {
					if s > r.Dispersion {
						r.Dispersion = s
					}
				}
			}
		}},
		{"trajectory wrong endpoint", func(r *Result) {
			traj := r.Trajectories[5]
			r.SettledAt[5] = (traj[len(traj)-1] + 1) % 10
			// repair double-settlement so only the endpoint check fires
			for i := range r.SettledAt {
				if i != 5 && r.SettledAt[i] == r.SettledAt[5] {
					r.SettledAt[i] = traj[len(traj)-1]
				}
			}
		}},
	}
	for _, tc := range cases {
		res := fresh()
		tc.corrupt(res)
		if err := res.Check(g); err == nil {
			t.Errorf("%s: corruption not detected", tc.name)
		}
	}
}

func TestCheckRejectsTruncated(t *testing.T) {
	g := graph.Cycle(32)
	res, err := Run(SequentialInto, g, 0, Options{MaxSteps: 10}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(g); err == nil {
		t.Fatal("truncated run passed Check")
	}
}
