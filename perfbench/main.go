// Command perfbench is the repository's end-to-end benchmark. It deploys a
// two-node fleet over a real TCP mesh (replicated control plane, one store
// partition of three in-memory replicas, ops plane on), drives one seeded
// closed-loop workload through one ingress client, checks every outcome
// against the scenario oracle and the modeled entity counters, and prints
// its metrics. The window is measured in rounds on freshly deployed fleets
// and cut into half-second slices; every figure is taken over the slices in
// which the hypervisor took the least CPU from the machine (see calmest).
// With --trace 1 it instead runs an untraced and a traced window on one
// tracing-mesh deployment plus isolated layer rungs, and prints the
// per-layer breakdown.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {name: {"value": v, "unit": u}}}
//
// Run it through run.sh, which builds it from source first:
//
//	bash perfbench/run.sh --workload iot-rtt --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"aeon/internal/transport"
)

// workloadSpec is one benchmark workload.
type workloadSpec struct {
	scenario string
	drive    loop
	warmOps  int64
	// operated workloads run the operator stream (group moves and topology
	// mutations) during the window; the others measure migration in a
	// probe on the quiesced fleet after it.
	operated bool
}

var workloads = map[string]workloadSpec{
	"iot-rtt":        {scenario: "iot", drive: loopSubmit, warmOps: 4000},
	"iot-batch":      {scenario: "iot", drive: loopBatch, warmOps: 64 * batchSize},
	"social-elastic": {scenario: "social", drive: loopFutures, warmOps: 16 * goWindow, operated: true},
}

const (
	rounds      = 6                      // fleets set up and measured per run
	sliceLength = 500 * time.Millisecond // windows are cut into slices this long
	probeMoves  = 24                     // group moves in the post-window migration probe
	warmMoves   = 4                      // operator ticks during an operated workload's warm-up
)

func main() {
	name := flag.String("workload", "", "workload: iot-rtt, iot-batch or social-elastic")
	seed := flag.Int64("seed", 1, "seed of the generated op stream")
	seconds := flag.Int("seconds", 10, "measured window length in seconds")
	trace := flag.Int("trace", 0, "1: print the per-layer breakdown instead of end-to-end metrics")
	commit := flag.String("commit", "unknown", "source revision stamped on the report")
	flag.Parse()
	spec, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		*name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *commit)
	b := &bench{spec: spec, seed: *seed, window: time.Duration(*seconds) * time.Second}
	var res result
	var err error
	if *trace == 1 {
		res, err = b.runTraced()
	} else {
		res, err = b.runUntraced()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		if !res.checked {
			os.Exit(1)
		}
	}
	res.print()
	if !res.correct {
		os.Exit(1)
	}
}

// bench runs one workload.
type bench struct {
	spec   workloadSpec
	seed   int64
	window time.Duration
	table  *opTable
}

// result is what one run reports.
type result struct {
	checked   bool // the correctness gate ran to a verdict
	correct   bool
	attempted int64
	failed    int64
	metrics   []metric // in report order
}

type metric struct {
	name, unit string
	value      float64
}

// add appends a metric; a figure with nothing to measure (no migrations on
// a workload without them, say) reads 0.
func (r *result) add(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value})
}

func (r result) print() {
	out := map[string]any{
		"correct":   r.correct,
		"attempted": r.attempted,
		"failed":    r.failed,
	}
	ms := map[string]any{}
	for _, m := range r.metrics {
		fmt.Printf("%-36s %16.4f %s\n", m.name, m.value, m.unit)
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	if r.attempted > 0 {
		fmt.Printf("%-36s %16.4f %s\n", "error_rate", float64(r.failed)/float64(r.attempted), "ratio")
	}
	out["metrics"] = ms
	line, _ := json.Marshal(out) // plain maps of numbers and strings always encode
	fmt.Println(string(line))
}

// setup deploys a fleet, diffs the scenario script against the oracle, warms
// it with the workload's own loop, and reads the entity baseline. It
// returns the fleet and what all of that took.
func (b *bench) setup(traced bool) (f *fleet, base []uint64, took setupRun, err error) {
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	before := readClocks()
	start := time.Now()
	if f, err = deployFleet(b.spec.scenario, transport.NewTCPMesh(), tr); err != nil {
		return nil, nil, took, err
	}
	if b.table == nil {
		b.table = newOpTable(f.scen, b.seed)
	}
	if err = f.checkScript(); err == nil {
		err = b.warm(f)
	}
	if err == nil {
		base, err = f.readEntities()
	}
	if err != nil {
		f.close()
		return nil, nil, took, err
	}
	return f, base, setupRun{took: time.Since(start), spent: readClocks().minus(before)}, nil
}

// setupRun is one timed setup.
type setupRun struct {
	took  time.Duration
	spent clocks
}

// warm runs the workload's loop for a fixed op count, plus a few operator
// ticks on operated workloads, so streams, routes and caches are filled
// before timing.
func (b *bench) warm(f *fleet) error {
	a := newAcct(b.table, f.scen.Entities())
	b.spec.drive(f, b.table, a, time.Now().Add(time.Minute), b.spec.warmOps)
	if b.spec.operated {
		op := &operator{mig: f.mig}
		for i := 0; i < warmMoves; i++ {
			op.mig.move()
			op.churn()
		}
		if op.mig.errs > 0 || op.churnErrs > 0 {
			return fmt.Errorf("warm-up: %d group moves and %d topology mutations failed, first move error: %v",
				op.mig.errs, op.churnErrs, op.mig.err)
		}
		f.mig.moves = f.mig.moves[:0]
	}
	return nil
}

// window is one timed measurement.
type window struct {
	a     *acct
	samp  *sampler
	op    *operator
	spent clocks
}

// measure runs the workload's loop for d, with the operator stream beside
// it on operated workloads.
func (b *bench) measure(f *fleet, d time.Duration) window {
	w := window{a: newAcct(b.table, f.scen.Entities())}
	var stop chan struct{}
	done := make(chan struct{})
	if b.spec.operated {
		w.op = &operator{mig: f.mig}
		stop = make(chan struct{})
		go func() {
			defer close(done)
			w.op.run(stop)
		}()
	} else {
		close(done)
	}
	w.samp = startSampler()
	before := readClocks()
	start := time.Now()
	w.a.startSlices(start, d)
	b.spec.drive(f, b.table, w.a, start.Add(d), math.MaxInt64)
	w.spent = readClocks().minus(before)
	w.samp.finish()
	if stop != nil {
		close(stop)
	}
	<-done
	w.a.claim(f.mig.moves)
	return w
}

// throughput is the median over the window's calmest slices of
// acknowledged events per second.
func (w window) throughput() float64 {
	return sliceMedian(calmest(w.a.complete()), func(s *slice) float64 { return s.throughput(w.a.sliceLen) })
}

// probe moves groups on the quiesced fleet; operated workloads skip it.
func (b *bench) probe(f *fleet) {
	if b.spec.operated {
		return
	}
	for i := 0; i < probeMoves; i++ {
		f.mig.move()
	}
}

// verify checks the entity counters against the acknowledged effects of
// every window, and that every group move and topology mutation succeeded,
// and fills the verdict.
func (b *bench) verify(f *fleet, base []uint64, res *result, ws ...window) error {
	all := newAcct(b.table, f.scen.Entities())
	var churnErrs int64
	for _, w := range ws {
		for e := range all.acked {
			all.acked[e] += w.a.acked[e]
			all.ambiguous[e] += w.a.ambiguous[e]
		}
		if w.op != nil {
			churnErrs += w.op.churnErrs
		}
	}
	err := f.checkEffects(base, all)
	switch {
	case err != nil:
	case f.mig.errs > 0:
		err = fmt.Errorf("%d of %d group moves failed, first: %w", f.mig.errs, f.mig.step, f.mig.err)
	case churnErrs > 0:
		err = fmt.Errorf("%d topology mutations failed", churnErrs)
	}
	res.checked = true
	res.correct = err == nil
	return err
}

// runUntraced measures the window in rounds, each on a freshly set-up
// fleet, and takes every figure over the calmest third of all the rounds'
// slices (see calmest).
func (b *bench) runUntraced() (result, error) {
	var (
		res     result
		slices  []*slice
		setups  []setupRun
		heaps   []float64
		probed  []time.Duration
		sliceLn time.Duration
	)
	for r := 0; r < rounds; r++ {
		f, base, setup, err := b.setup(false)
		if err != nil {
			return res, err
		}
		w := b.measure(f, b.window/rounds)
		moved := len(f.mig.moves)
		b.probe(f)
		for _, mv := range f.mig.moves[moved:] {
			probed = append(probed, mv.took)
		}
		err = b.verify(f, base, &res, w)
		f.close()
		if err != nil {
			return res, err
		}
		if w.a.firstErr != nil && res.failed == 0 {
			fmt.Printf("# first failure: %v\n", w.a.firstErr)
		}
		fmt.Printf("# round %d: setup %.3fs, %.0f ev/s, %.3f of the machine's CPU stolen\n",
			r, setup.took.Seconds(), w.throughput(), w.spent.stolen())
		res.attempted += w.a.attempted
		res.failed += w.a.failed
		slices = append(slices, w.a.complete()...)
		sliceLn = w.a.sliceLen
		setups = append(setups, setup)
		heaps = append(heaps, float64(w.samp.heapPeak)/(1<<20))
	}
	calm := calmest(slices)
	var moves []time.Duration
	for _, s := range calm {
		moves = append(moves, s.moves...)
	}
	if !b.spec.operated {
		moves = probed
	}
	m := &res
	m.add("throughput_evps", sliceMedian(calm, func(s *slice) float64 { return s.throughput(sliceLn) }), "ev/s")
	m.add("latency_p50_us", sliceMedian(calm, func(s *slice) float64 { return s.latency(0.50) }), "us")
	m.add("latency_p99_us", sliceMedian(calm, func(s *slice) float64 { return s.latency(0.99) }), "us")
	m.add("ack_rate", float64(res.attempted-res.failed)/float64(res.attempted), "ratio")
	m.add("cpu_us_per_ev", sliceMedian(calm, func(s *slice) float64 {
		return float64(s.spent.cpu.Nanoseconds()) / 1e3 / float64(s.attempted-s.failed)
	}), "us")
	m.add("heap_peak_mb", median(heaps), "MB")
	m.add("migrate_p50_ms", medianMs(moves), "ms")
	m.add("setup_s", calmestSetup(setups), "s")
	return res, nil
}

// calmestSetup is the median time of the calmest third of setups (see
// calmest).
func calmestSetup(runs []setupRun) float64 {
	calm := calmestThird(runs, func(r setupRun) float64 { return r.spent.stolen() })
	secs := make([]float64, len(calm))
	for i, r := range calm {
		secs[i] = r.took.Seconds()
	}
	return median(secs)
}

func medianMs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d.Nanoseconds()) / 1e6
	}
	return median(ms)
}
