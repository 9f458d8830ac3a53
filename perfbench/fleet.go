package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/ingress"
	"aeon/internal/node"
	"aeon/internal/ownership"
	"aeon/internal/transport"
	"aeon/internal/workload"
)

const (
	fleetNodes = 2
	// callTimeout bounds every client call; a failed event is recorded at
	// this plus the time it took to fail.
	callTimeout = 2 * time.Second
	// opTableSize is how many seeded ops are generated before timing; the
	// load loops replay them cyclically so they allocate nothing.
	opTableSize = 1 << 14
)

// fleet is one deployed benchmark fleet: two nodes (over TCP loopback in
// the benchmark), the replicated control plane, one store partition of
// three in-memory replicas, the ops plane, and one ingress client.
type fleet struct {
	scen workload.Scenario
	dep  *node.Deployment
	cli  *ingress.Client
	mig  *migrator
	tr   *tracer // nil when the mesh is not traced
}

// deployFleet brings up a fleet hosting the named scenario on mesh. With a
// tracer, every endpoint attaches through the tracing mesh.
func deployFleet(scenario string, mesh transport.Mesh, tr *tracer) (*fleet, error) {
	scen, err := workload.NewScenario(scenario, fleetNodes)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		mesh = tr.wrap(mesh)
	}
	dep, err := node.Deploy(mesh, node.Topology{
		Nodes:      fleetNodes,
		Scenario:   scen,
		Replicate:  true,
		StoreParts: 1,
		EnableOps:  true,
	})
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	f := &fleet{scen: scen, dep: dep, tr: tr}
	f.mig = newMigrator(f)
	if err := dep.WaitReady(10 * time.Second); err != nil {
		f.close()
		return nil, err
	}
	ids := make([]transport.NodeID, fleetNodes)
	for i := range ids {
		ids[i] = transport.NodeID(i + 1)
	}
	f.cli, err = ingress.Dial(mesh, ingress.Config{Nodes: ids, CallTimeout: callTimeout, Window: goWindow})
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) close() {
	if f.cli != nil {
		_ = f.cli.Close()
	}
	f.dep.Close()
}

// checkScript replays the scenario's deterministic script through the
// client and diffs it against a single-process run of the same scenario.
func (f *fleet) checkScript() error {
	want, err := workload.Oracle(f.scen.Name(), fleetNodes)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	got := f.scen.Script(f.cli.Submit)
	return diffScript(f.scen.Name(), want, got)
}

func diffScript(name string, want, got []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s script: %d outcomes, oracle has %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s script op %d: got %q, oracle %q", name, i, got[i], want[i])
		}
	}
	return nil
}

// readEntities reads every modeled entity counter through the client.
func (f *fleet) readEntities() ([]uint64, error) {
	out := make([]uint64, f.scen.Entities())
	for e := range out {
		v, err := f.scen.ReadEntity(f.cli.Submit, e)
		if err != nil {
			return nil, fmt.Errorf("read entity %d: %w", e, err)
		}
		out[e] = v
	}
	return out, nil
}

// checkEffects requires every entity counter to equal its baseline plus the
// acknowledged effects, widened only by effects of failures that may have
// executed.
func (f *fleet) checkEffects(base []uint64, a *acct) error {
	now, err := f.readEntities()
	if err != nil {
		return err
	}
	for e := range now {
		got := now[e] - base[e]
		lo, hi := a.acked[e], a.acked[e]+a.ambiguous[e]
		if got < lo || got > hi {
			return fmt.Errorf("%s entity %d on server %v: counter moved %d, acknowledged effects %d (ambiguous %d)",
				f.scen.Name(), e, f.scen.EntityServer(e), got, lo, a.ambiguous[e])
		}
	}
	return nil
}

// neverExecuted reports whether err proves the event did not run: the node
// refused it before execution.
func neverExecuted(err error) bool {
	return errors.Is(err, core.ErrUnknownContext) || errors.Is(err, core.ErrBackpressure)
}

// opTable is the seeded op stream, generated before timing.
type opTable struct {
	items   []ingress.BatchItem
	effects [][]workload.Effect
}

func newOpTable(scen workload.Scenario, seed int64) *opTable {
	rng := rand.New(rand.NewSource(seed))
	t := &opTable{items: make([]ingress.BatchItem, opTableSize), effects: make([][]workload.Effect, opTableSize)}
	for i := range t.items {
		op := scen.SoakOp(rng)
		t.items[i] = ingress.BatchItem{Target: op.Target, Method: op.Method, Args: op.Args}
		t.effects[i] = op.Effects
	}
	return t
}

// acct is a load loop's outcome accounting. One goroutine owns it.
// Outcomes also land in fixed-length time slices of the window, so figures
// can be taken over the slices other guests on the host disturbed least
// (see calmest).
type acct struct {
	effects   [][]workload.Effect
	attempted int64
	failed    int64
	acked     []uint64 // per entity: summed deltas of acknowledged ops
	ambiguous []uint64 // per entity: summed deltas of failures that may have run
	eventNs   int64    // summed client-call time over every event
	firstErr  error

	slices   []slice // the last one collects whatever completes after the window
	cur      int
	start    time.Time // start of the window
	next     time.Time // end of the current slice
	mark     clocks    // clocks when the current slice began
	sliceLen time.Duration
}

// slice is one time slice of a window.
type slice struct {
	lat       hist
	attempted int64
	failed    int64
	spent     clocks          // charged while the slice ran
	moves     []time.Duration // group moves that completed in the slice
}

func newAcct(t *opTable, entities int) *acct {
	return &acct{effects: t.effects, acked: make([]uint64, entities), ambiguous: make([]uint64, entities), slices: make([]slice, 1)}
}

// startSlices starts slicing a window of length d at start into equal
// slices of about sliceLength.
func (a *acct) startSlices(start time.Time, d time.Duration) {
	n := int((d + sliceLength/2) / sliceLength)
	if n < 1 {
		n = 1
	}
	a.slices = make([]slice, n+1)
	a.sliceLen = d / time.Duration(n)
	a.start = start
	a.next = start.Add(a.sliceLen)
	a.mark = readClocks()
}

// advance closes slices until end falls in the current one. Slices skipped
// whole by a stall are charged nothing; the slice the stall began in takes
// the clocks.
func (a *acct) advance(end time.Time) {
	now := readClocks()
	for !end.Before(a.next) && a.cur < len(a.slices)-1 {
		a.slices[a.cur].spent = now.minus(a.mark)
		a.mark = now
		a.cur++
		a.next = a.next.Add(a.sliceLen)
	}
}

// done records one event's outcome: op is its op-table index and the event
// ran from the public client call at start to its result at end.
func (a *acct) done(op int, start, end time.Time, err error) {
	d := end.Sub(start)
	a.attempted++
	a.eventNs += int64(d)
	s := &a.slices[0] // warm-up accounts have one slice
	if a.sliceLen > 0 {
		if !end.Before(a.next) {
			a.advance(end)
		}
		s = &a.slices[a.cur]
	}
	s.attempted++
	if err == nil {
		s.lat.record(d)
		for _, ef := range a.effects[op] {
			a.acked[ef.Entity] += ef.Delta
		}
		return
	}
	a.failed++
	s.failed++
	s.lat.recordFailure(callTimeout, d)
	if a.firstErr == nil {
		a.firstErr = err
	}
	if !neverExecuted(err) {
		for _, ef := range a.effects[op] {
			a.ambiguous[ef.Entity] += ef.Delta
		}
	}
}

// throughput is the slice's acknowledged events per second of the time
// the hypervisor left the machine's CPUs running. When steal is spread
// over a whole run, even the calmest slices lose a share of their time,
// and every event waits that share out; counting only the time the CPUs
// ran keeps the figure on the code. Without steal it is the plain rate.
func (s *slice) throughput(length time.Duration) float64 {
	return float64(s.attempted-s.failed) / (length.Seconds() * (1 - s.spent.stolen()))
}

// latency is the slice's q-quantile latency in microseconds; +Inf for a
// slice in which nothing completed, which ranks it slowest.
func (s *slice) latency(q float64) float64 {
	if s.lat.n == 0 {
		return math.Inf(1)
	}
	return s.lat.quantile(q) / 1e3
}

// calmest returns the third of slices in which other guests on the host
// took the least CPU from the machine, and every slice as calm as the
// calmest third's worst. On a virtual machine sharing its host, the
// hypervisor takes CPU away in bursts; a burst stalls whatever the fleet is
// doing, and a stalled migration or lock holder stalls everything queued
// behind it, so the figures of a disturbed slice follow the neighbours'
// load rather than the code. Figures are taken over the calmest slices
// instead; without steal, that is every slice.
func calmest(slices []*slice) []*slice {
	return calmestThird(slices, func(s *slice) float64 { return s.spent.stolen() })
}

// calmestThird sorts xs by stolen share and returns the least-stolen third
// of them, extended by every element that ties with the last one taken.
func calmestThird[T any](xs []T, stolen func(T) float64) []T {
	byCalm := append([]T(nil), xs...)
	sort.SliceStable(byCalm, func(i, j int) bool { return stolen(byCalm[i]) < stolen(byCalm[j]) })
	n := (len(byCalm) + 2) / 3
	for n < len(byCalm) && stolen(byCalm[n]) <= stolen(byCalm[n-1]) {
		n++
	}
	return byCalm[:n]
}

// complete returns the window's complete slices, leaving out the one that
// collected completions after the window.
func (a *acct) complete() []*slice {
	out := make([]*slice, len(a.slices)-1)
	for i := range out {
		out[i] = &a.slices[i]
	}
	return out
}

// claim files each group move that completed inside the window under the
// slice it completed in.
func (a *acct) claim(moves []groupMove) {
	for _, mv := range moves {
		i := int(mv.end.Sub(a.start) / a.sliceLen)
		if mv.end.After(a.start) && i < len(a.slices)-1 {
			a.slices[i].moves = append(a.slices[i].moves, mv.took)
		}
	}
}

// sliceMedian is the median of f over slices.
func sliceMedian(slices []*slice, f func(s *slice) float64) float64 {
	vals := make([]float64, len(slices))
	for i, s := range slices {
		vals[i] = f(s)
	}
	return median(vals)
}

// median returns the median of vals, averaging the middle two of an even
// count (NaN when empty); it sorts vals in place.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// migrator moves migration-safe groups between the two servers, tracking
// where each group lives.
type migrator struct {
	f     *fleet
	roots []ownership.ID
	at    []cluster.ServerID
	step  int
	moves []groupMove // successful moves
	errs  int
	err   error // first failure
}

func newMigrator(f *fleet) *migrator {
	m := &migrator{f: f, roots: f.scen.Roots()}
	for i := range m.roots {
		m.at = append(m.at, f.scen.RootServer(i))
	}
	return m
}

// move migrates the next group in rotation to the other server, issuing the
// command from alternating nodes. Rotation keeps the same group from moving
// twice in a row.
func (m *migrator) move() {
	k := m.step % len(m.roots)
	caller := m.f.dep.Nodes[m.step%fleetNodes]
	m.step++
	from := m.at[k]
	to := cluster.ServerID(int(from)%fleetNodes + 1)
	start := time.Now()
	err := caller.MigrateRemote(transport.NodeID(from), m.roots[k], to)
	if err != nil {
		m.errs++
		if m.err == nil {
			m.err = err
		}
		if host, ok := m.f.dep.Nodes[int(from)-1].Runtime().Directory().Locate(m.roots[k]); ok {
			m.at[k] = host
		}
		return
	}
	end := time.Now()
	m.moves = append(m.moves, groupMove{end: end, took: end.Sub(start)})
	m.at[k] = to
}

// groupMove is one completed group move.
type groupMove struct {
	end  time.Time
	took time.Duration
}
