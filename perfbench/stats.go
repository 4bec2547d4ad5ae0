package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// minBeyond is how many samples must lie beyond a reported percentile for
// it to count as measured rather than read off the tail's last few points.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether it is valid: at least minBeyond samples lie strictly above its
// rank. The slice is sorted in place.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	idx := int(math.Ceil(p*float64(len(xs)))) - 1
	idx = max(0, min(idx, len(xs)-1))
	return xs[idx], len(xs)-1-idx >= minBeyond
}

// median is the middle value (mean of the middle two for even lengths).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// medianOfMedians is the median over groups of each group's median.
func medianOfMedians(groups map[int][]float64) float64 {
	meds := make([]float64, 0, len(groups))
	for _, xs := range groups {
		meds = append(meds, median(xs))
	}
	return median(meds)
}

// moments accumulates a running mean and variance (Welford).
type moments struct {
	n        int64
	mean, m2 float64
}

func (m *moments) add(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// se is the standard error of the mean.
func (m *moments) se() float64 {
	if m.n < 2 {
		return math.Inf(1)
	}
	return math.Sqrt(m.m2 / float64(m.n-1) / float64(m.n))
}

// maxZ is the tolerance of the statistical output checks, in standard
// errors: a correct program fails one with probability about 2e-9.
const maxZ = 6

// minSample is the smallest sample a statistical check is made on: below
// it the sample standard deviation is too rough for a maxZ bound (only
// smoke-test sizes run that few trials).
const minSample = 30

// meanMatches reports whether the sample mean lies within maxZ standard
// errors of an exact expectation.
func meanMatches(m moments, exact float64) (bool, string) {
	z := math.Abs(m.mean-exact) / m.se()
	return z <= maxZ, fmt.Sprintf("mean %.2f vs exact %.2f over %d trials (z=%.2f)", m.mean, exact, m.n, z)
}

// meansAgree is the two-sample form: the difference of the means lies
// within maxZ standard errors of zero.
func meansAgree(a, b moments) (bool, string) {
	z := math.Abs(a.mean-b.mean) / math.Hypot(a.se(), b.se())
	return z <= maxZ, fmt.Sprintf("means %.2f vs %.2f over %d/%d trials (z=%.2f)", a.mean, b.mean, a.n, b.n, z)
}

// tally counts operations attempted and failed: jobs (an engine run, a
// server job, a coordinator run) and output checks. A job fails on any
// engine or coordinator error and on any non-2xx answer, 429 included,
// even if a retry later succeeded; a check fails when its output is
// wrong. Safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string
}

// op records one operation; a non-nil err marks it failed.
func (t *tally) op(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.failures) < 20 {
			t.failures = append(t.failures, err.Error())
		}
	}
}

// check records one output check.
func (t *tally) check(ok bool, what string) {
	if ok {
		t.op(nil)
		return
	}
	t.op(fmt.Errorf("check failed: %s", what))
}

// failedRatio is failed ÷ attempted.
func (t *tally) failedRatio() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// statusError is the failure of an HTTP exchange that answered non-2xx.
type statusError struct {
	op   string
	code int
}

func (e *statusError) Error() string { return fmt.Sprintf("%s: HTTP %d", e.op, e.code) }

// httpErr returns a *statusError for a non-2xx code, nil otherwise.
func httpErr(op string, code int) error {
	if code < 200 || code > 299 {
		return &statusError{op: op, code: code}
	}
	return nil
}
