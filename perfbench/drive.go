package main

import (
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"aeon/internal/ingress"
	"aeon/internal/transport"
)

const (
	opMask    = opTableSize - 1
	batchSize = 128 // events per SubmitBatch on iot-batch
	goWindow  = 256 // futures in flight on social-elastic
	// operatorEvery is the social-elastic operator period: one live group
	// move and one topology mutation per tick. Every future queued behind
	// an event on a stopped group waits out its stop window, so a much
	// shorter period keeps the window stalled much of the time and the
	// figures follow the stop windows' jitter.
	operatorEvery = 100 * time.Millisecond
)

// loop is a closed-loop load generator: it submits seeded ops from t
// until the deadline passes or max events were attempted, recording into a.
type loop func(f *fleet, t *opTable, a *acct, until time.Time, max int64)

// loopSubmit keeps one event in flight through Client.Submit.
func loopSubmit(f *fleet, t *opTable, a *acct, until time.Time, max int64) {
	for i := 0; a.attempted < max; i++ {
		op := &t.items[i&opMask]
		start := time.Now()
		_, err := f.cli.Submit(op.Target, op.Method, op.Args...)
		end := time.Now()
		a.done(i&opMask, start, end, err)
		if !end.Before(until) {
			return
		}
	}
}

// loopBatch keeps one SubmitBatch of batchSize events in flight; the client
// splits it by route across the nodes.
func loopBatch(f *fleet, t *opTable, a *acct, until time.Time, max int64) {
	for off := 0; a.attempted < max; off = (off + batchSize) & opMask {
		start := time.Now()
		res := f.cli.SubmitBatch(t.items[off : off+batchSize])
		end := time.Now()
		for j := range res {
			a.done(off+j, start, end, res[j].Err)
		}
		if !end.Before(until) {
			return
		}
	}
}

// inflight is one outstanding future of loopFutures.
type inflight struct {
	fut   *ingress.Future
	op    int
	start time.Time
}

// loopFutures keeps goWindow Client.Go futures in flight, so the client's
// coalescer packs them into batch frames, and waits for them in the order sent.
func loopFutures(f *fleet, t *opTable, a *acct, until time.Time, max int64) {
	var ring [goWindow]inflight
	issued, completed := 0, 0
	stopping := false
	for {
		if stopping || issued-completed == goWindow {
			if issued == completed {
				return
			}
			r := &ring[completed%goWindow]
			_, err := r.fut.Wait()
			end := time.Now()
			a.done(r.op, r.start, end, err)
			r.fut = nil
			completed++
			if !end.Before(until) {
				stopping = true
			}
			continue
		}
		r := &ring[issued%goWindow]
		r.op = issued & opMask
		op := &t.items[r.op]
		r.start = time.Now()
		r.fut = f.cli.Go(op.Target, op.Method, op.Args...)
		issued++
		if int64(issued) >= max {
			stopping = true
		}
	}
}

// operator runs the social-elastic operator stream until stop closes: every
// tick one live group move and one topology mutation through the client.
type operator struct {
	mig       *migrator
	churnN    int64
	churnNs   int64
	churnErrs int64
}

func (o *operator) run(stop <-chan struct{}) {
	tick := time.NewTicker(operatorEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		o.mig.move()
		o.churn()
	}
}

func (o *operator) churn() {
	f := o.mig.f
	target, method, args := f.scen.ChurnOp()
	start := time.Now()
	_, err := f.cli.Submit(target, method, args...)
	o.churnNs += int64(time.Since(start))
	o.churnN++
	if err != nil {
		o.churnErrs++
	}
}

// sampler polls the in-use heap and the mux slot occupancy while a window
// runs.
type sampler struct {
	stop     chan struct{}
	wg       sync.WaitGroup
	heapPeak uint64
	slotSum  int64
	samples  int64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > s.heapPeak {
				s.heapPeak = v
			}
			s.slotSum += transport.ReadMuxStats().SlotsInUse
			s.samples++
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for it.
func (s *sampler) finish() {
	close(s.stop)
	s.wg.Wait()
}

// clocks are the time counters a slice is charged with.
type clocks struct {
	cpu time.Duration // this process's user plus system CPU time
	// steal and ticks are machine-wide clock ticks: CPU time the
	// hypervisor gave to other guests while this one wanted to run, and
	// all CPU time. Both stay zero where the kernel does not report them.
	steal, ticks int64
}

func readClocks() clocks {
	var c clocks
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	// The first line of /proc/stat sums every CPU: user nice system idle
	// iowait irq softirq steal, then guest times already counted in user.
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return c
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return c
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return clocks{cpu: c.cpu}
		}
		c.ticks += v
		if i == 7 {
			c.steal = v
		}
	}
	return c
}

func (c clocks) minus(o clocks) clocks {
	return clocks{cpu: c.cpu - o.cpu, steal: c.steal - o.steal, ticks: c.ticks - o.ticks}
}

// stolen is the share of the machine's CPU time the hypervisor took away.
func (c clocks) stolen() float64 {
	if c.ticks <= 0 {
		return 0
	}
	return float64(c.steal) / float64(c.ticks)
}
