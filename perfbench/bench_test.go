package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"aeon/internal/transport"
	"aeon/internal/workload"
)

// TestHistQuantilesMatchSortedSample checks every reported quantile against
// the exact order statistic of the same sample: within one bucket, 1/64.
func TestHistQuantilesMatchSortedSample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h hist
	sample := make([]float64, 50000)
	for i := range sample {
		// Log-uniform from 20ns to 20ms, like a latency distribution.
		v := math.Exp(math.Log(20) + rng.Float64()*math.Log(1e6))
		sample[i] = math.Floor(v)
		h.record(time.Duration(sample[i]))
	}
	sort.Float64s(sample)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		want := sample[int(math.Ceil(q*float64(len(sample))))-1]
		got := h.quantile(q)
		if math.Abs(got-want) > want/64+1 {
			t.Errorf("q%.3f: histogram %.1f, sorted sample %.1f", q, got, want)
		}
	}
}

func TestHistBucketsRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1000, 1 << 20, 1<<40 + 12345, math.MaxUint64} {
		b := bucketOf(v)
		lo, width := bucketRange(b)
		if v < lo || v-lo >= width {
			t.Errorf("value %d in bucket %d = [%d, %d+%d)", v, b, lo, lo, width)
		}
		if b < 0 || b >= histBuckets {
			t.Errorf("value %d maps outside the histogram: %d", v, b)
		}
	}
}

// TestFailureRanksSlowest checks that a failed call ranks above every
// success, even a failure that returned at once.
func TestFailureRanksSlowest(t *testing.T) {
	var h hist
	for i := 0; i < 98; i++ {
		h.record(time.Duration(i+1) * time.Millisecond)
	}
	h.record(callTimeout / 2) // the slowest success
	h.recordFailure(callTimeout, time.Microsecond)
	if got := h.quantile(1); got < float64(callTimeout) {
		t.Fatalf("max %.0fns: a failure must rank at or above the call timeout %v", got, callTimeout)
	}
	if got := h.quantile(0.99); got >= float64(callTimeout) {
		t.Fatalf("p99 %.0fns: only the single failure should sit above the timeout", got)
	}

	a := newAcct(&opTable{effects: make([][]workload.Effect, 2)}, 0)
	now := time.Now()
	a.done(0, now, now.Add(time.Second), nil)
	a.done(1, now, now.Add(time.Microsecond), transport.ErrClosed)
	if a.failed != 1 || a.attempted != 2 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", a.attempted, a.failed)
	}
	if got := a.slices[0].lat.quantile(1); got < float64(callTimeout) {
		t.Fatalf("fast failure recorded at %.0fns, below the call timeout", got)
	}
}

// TestSelfTimeOfNestedSpans checks self time on a synthetic three-level
// trace: a client call [0,100] around a transport frame [10,90] around a
// node handler [20,70].
func TestSelfTimeOfNestedSpans(t *testing.T) {
	const call, frame, handler = 100, 80, 50
	if got := selfNs(call, frame); got != 20 {
		t.Errorf("ingress self %d, want 20", got)
	}
	if got := selfNs(frame, handler); got != 30 {
		t.Errorf("transport self %d, want 30", got)
	}
	if got := selfNs(handler); got != 50 {
		t.Errorf("node self %d, want 50", got)
	}

	// A 128-event batch call of 100ns split into two concurrent frames: 60
	// events for 80ns and 68 for 90ns. Each event's child is the frame it
	// rode, so ingress self per event is (128*100 - 60*80 - 68*90) / 128.
	var st spanStat
	st.add(80, 1, 60, nil)
	st.add(90, 1, 68, nil)
	if st.frames.Load() != 0 || st.ns.Load() != 170 || st.evNs.Load() != 60*80+68*90 {
		t.Fatalf("span stat %+v", st.vals())
	}
	want := float64(128*100-60*80-68*90) / 128
	if got := float64(selfNs(128*100, st.evNs.Load())) / 128; got != want {
		t.Errorf("ingress self per event %.3f, want %.3f", got, want)
	}
}

// TestScriptIdenticalThroughTracingMesh runs the social script on the
// in-memory mesh with and without the tracing wrapper: both must match the
// oracle, and the traced run must have counted and timed its frames.
func TestScriptIdenticalThroughTracingMesh(t *testing.T) {
	want, err := workload.Oracle("social", fleetNodes)
	if err != nil {
		t.Fatal(err)
	}
	run := func(tr *tracer) []string {
		f, err := deployFleet("social", transport.NewInMemMesh(transport.NullNetwork{}), tr)
		if err != nil {
			t.Fatal(err)
		}
		defer f.close()
		return f.scen.Script(f.cli.Submit)
	}
	plain := run(nil)
	tr := &tracer{}
	tr.on.Store(true)
	traced := run(tr)
	if err := diffScript("plain", want, plain); err != nil {
		t.Error(err)
	}
	if err := diffScript("traced", plain, traced); err != nil {
		t.Error(err)
	}
	s := tr.snap()
	if n := s.submitFrames(roleIngress); n != int64(len(want)) {
		t.Errorf("traced %d client submit frames for %d script ops", n, len(want))
	}
	if s.call[roleIngress][kindSubmit].ns <= 0 || s.handle[roleNode][kindSubmit].ns <= 0 {
		t.Errorf("traced run recorded no span time: %+v", s.call[roleIngress][kindSubmit])
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
}

func TestCalmestThird(t *testing.T) {
	id := func(v float64) float64 { return v }
	if got := calmestThird([]float64{0.3, 0.1, 0.2, 0.0, 0.5, 0.4}, id); len(got) != 2 || got[0] != 0 || got[1] != 0.1 {
		t.Errorf("calmest third %v, want [0 0.1]", got)
	}
	if got := calmestThird([]float64{0, 0.2, 0, 0, 0.1, 0}, id); len(got) != 4 {
		t.Errorf("ties with the last one taken must be kept: %v", got)
	}
	if got := calmestThird([]float64{0, 0, 0}, id); len(got) != 3 {
		t.Errorf("without steal every element is calmest: %v", got)
	}
}
