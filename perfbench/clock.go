package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cpuTime is the CPU time (user + system) the process has used so far;
// the kernel does not charge a task for time the hypervisor stole from its
// virtual CPU. It is reported beside each timed phase.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stolenTime is the machine-wide time the hypervisor has stolen from this
// machine's virtual CPUs (the steal column of /proc/stat), or 0 where it
// is not reported.
func stolenTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / 100
}

// sampler reads the machine's stolen time and the process's resident
// set in the background, so that any interval of the run can be charged
// with the time stolen inside it and its memory peak read off. On a shared
// virtual machine a neighbour's load shows up as steal; timed intervals
// are reported net of it, which is what keeps two runs of the same code
// comparable there.
type sampler struct {
	stop chan struct{}
	done chan struct{}

	mu  sync.Mutex
	at  []time.Time
	cum []time.Duration // cumulative stolen time at at[i]
	rss []int64         // resident bytes at at[i]
}

// sampleEvery is the sampling period: /proc/stat counts steal in 10 ms
// ticks, so finer sampling would mostly read the same value.
const sampleEvery = 20 * time.Millisecond

func startSampler() *sampler {
	c := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	c.sample()
	go func() {
		defer close(c.done)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				c.sample()
				return
			case <-t.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *sampler) sample() {
	now, st, rss := time.Now(), stolenTime(), residentBytes()
	c.mu.Lock()
	c.at, c.cum, c.rss = append(c.at, now), append(c.cum, st), append(c.rss, rss)
	c.mu.Unlock()
}

// Stop ends sampling and waits for the sampler to exit.
func (c *sampler) Stop() {
	close(c.stop)
	<-c.done
}

// stolenAt interpolates the cumulative stolen time at t.
func (c *sampler) stolenAt(t time.Time) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := sort.Search(len(c.at), func(i int) bool { return !c.at[i].Before(t) })
	switch {
	case i == 0:
		return c.cum[0]
	case i == len(c.at):
		return c.cum[len(c.cum)-1]
	}
	span := c.at[i].Sub(c.at[i-1])
	frac := float64(t.Sub(c.at[i-1])) / float64(span)
	return c.cum[i-1] + time.Duration(frac*float64(c.cum[i]-c.cum[i-1]))
}

// net returns the interval [start, start+d) less the time stolen inside
// it from the cpus virtual CPUs the interval kept busy. A nil sampler
// returns d unchanged.
func (c *sampler) net(start time.Time, d time.Duration, cpus int) time.Duration {
	if c == nil {
		return d
	}
	lost := (c.stolenAt(start.Add(d)) - c.stolenAt(start)) / time.Duration(cpus)
	return max(d-lost, 0)
}

// peakRSS is the largest resident set sampled in [from, to], or false if
// no sample in it read one.
func (c *sampler) peakRSS(from, to time.Time) (int64, bool) {
	if c == nil {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var peak int64
	for i, t := range c.at {
		if !t.Before(from) && !t.After(to) {
			peak = max(peak, c.rss[i])
		}
	}
	return peak, peak > 0
}

// residentBytes is the process's resident set now, or 0 where /proc is
// unavailable.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
