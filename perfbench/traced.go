package main

import (
	"fmt"
	"math"
	"time"

	"aeon/internal/ingress"
)

// transparencyTolerance is how far the traced window's frame shape may
// drift from the untraced window's before tracing counts as perturbing the
// system it measures.
const transparencyTolerance = 0.20

// nodeCounts snapshots the fleet's forwarded and executed event counters.
func nodeCounts(f *fleet) (forwarded, executed uint64) {
	for _, n := range f.dep.Nodes {
		forwarded += n.Forwarded()
		executed += n.Executed()
	}
	return forwarded, executed
}

// shape is a window's frame shape, which tracing must not change.
type shape struct{ eventsPerFrame, framesPerEv float64 }

func shapeOf(d traceSnap, events int64) shape {
	return shape{
		eventsPerFrame: float64(events) / float64(d.submitFrames(roleIngress)),
		framesPerEv:    float64(d.frames()) / float64(events),
	}
}

// runTraced runs half the window untraced and half traced on one tracing-mesh
// deployment, then the isolated rungs, and reports the per-layer breakdown.
func (b *bench) runTraced() (result, error) {
	var res result
	f, base, _, err := b.setup(true)
	if err != nil {
		return res, err
	}
	defer f.close()
	tr := f.tr
	mig := f.mig
	half := b.window / 2

	s0 := tr.snap()
	plain := b.measure(f, half)
	s1 := tr.snap()

	tr.on.Store(true)
	fwd0, exe0 := nodeCounts(f)
	coal0 := f.cli.CoalescerStats()
	moves0 := len(mig.moves)
	traced := b.measure(f, half)
	sWin := tr.snap()
	b.probe(f)
	fwd1, exe1 := nodeCounts(f)
	coal1 := f.cli.CoalescerStats()
	s2 := tr.snap()
	tr.on.Store(false)

	if err := b.verify(f, base, &res, plain, traced); err != nil {
		return res, err
	}
	res.attempted = plain.a.attempted + traced.a.attempted
	res.failed = plain.a.failed + traced.a.failed

	// Tracing must be transparent: the same frames per event either way.
	before, after := shapeOf(s1.sub(s0), plain.a.attempted), shapeOf(sWin.sub(s1), traced.a.attempted)
	if drift(before.eventsPerFrame, after.eventsPerFrame) > transparencyTolerance ||
		drift(before.framesPerEv, after.framesPerEv) > transparencyTolerance {
		res.correct = false
		return res, fmt.Errorf("tracing changed the frame shape: untraced %+v, traced %+v", before, after)
	}

	m := &res
	d := s2.sub(s1)
	events := float64(traced.a.attempted)
	us := func(ns int64, n float64) float64 { return float64(ns) / 1e3 / n }
	perFrame := func(v spanVals) float64 { return us(v.ns, float64(v.frames)) }

	// ingress: the client call minus the frame each event rode.
	ingressCall := d.call[roleIngress][kindSubmit].plus(d.call[roleIngress][kindSubmitBatch])
	m.add("ingress.self_us_per_ev", us(selfNs(traced.a.eventNs, ingressCall.evNs), events), "us")
	m.add("ingress.events_per_frame", after.eventsPerFrame, "ev")
	m.add("ingress.linger_flush_share", lingerShare(coal0, coal1), "ratio")

	// transport: caller span minus handler span, over every frame.
	var callAll, handleAll spanVals
	for k := range frameKinds {
		callAll = callAll.plus(d.callKind(k))
		handleAll = handleAll.plus(d.handle[roleNode][k]).plus(d.handle[roleStore][k])
	}
	transportSelf := selfNs(callAll.ns, handleAll.ns)
	for _, k := range []int{kindSubmit, kindSubmitBatch, kindStore, kindTransfer, kindMigrate, kindReplicate} {
		v := d.callKind(k)
		m.add("transport.rtt_us."+frameKinds[k], perFrame(v), "us")
		m.add("transport.frames."+frameKinds[k], float64(v.frames), "count")
	}
	m.add("transport.self_us_per_frame", us(transportSelf, float64(callAll.frames)), "us")
	m.add("transport.self_us_per_ev", us(transportSelf, events), "us")
	m.add("transport.frames_per_ev", after.framesPerEv, "count")
	m.add("transport.slots_in_use", float64(traced.samp.slotSum)/float64(traced.samp.samples), "count")

	// node: submit handlers minus the forwards they make to peers.
	nodeSubmit := d.handle[roleNode][kindSubmit].plus(d.handle[roleNode][kindSubmitBatch])
	nodeForward := d.call[roleNode][kindSubmit].plus(d.call[roleNode][kindSubmitBatch])
	for _, k := range []int{kindSubmit, kindSubmitBatch, kindTransfer, kindMigrate, kindReplicate} {
		m.add("node.handle_us."+frameKinds[k], perFrame(d.handle[roleNode][k]), "us")
	}
	for _, k := range []int{kindSubmit, kindSubmitBatch, kindMigrate} {
		m.add("node.handle_errors."+frameKinds[k], float64(d.handle[roleNode][k].errs), "count")
	}
	m.add("node.handle_us_per_ev", us(selfNs(nodeSubmit.ns, nodeForward.ns), events), "us")
	m.add("node.forward_share", float64(fwd1-fwd0)/float64(exe1-exe0), "ratio")

	// migration, store plane and replication log.
	moves := float64(len(mig.moves) - moves0)
	group, stop := migrationSummary(f)
	m.add("migration.group_ms", group, "ms")
	m.add("migration.transfer_us", perFrame(d.callKind(kindTransfer)), "us")
	m.add("migration.stop_ms", stop, "ms")
	m.add("cloudstore.rtt_us", perFrame(d.callKind(kindStore)), "us")
	m.add("cloudstore.handle_us", perFrame(d.handle[roleStore][kindStore]), "us")
	m.add("cloudstore.frames_per_migration", float64(d.callKind(kindStore).frames)/moves, "count")
	churn := math.NaN()
	if traced.op != nil {
		churn = us(traced.op.churnNs, float64(traced.op.churnN))
	}
	m.add("replication.churn_us", churn, "us")
	m.add("trace_overhead", traced.throughput()/plain.throughput(), "ratio")

	if err := runRungs(b.spec.scenario, b.table, m); err != nil {
		return res, fmt.Errorf("rungs: %w", err)
	}
	return res, nil
}

func drift(a, b float64) float64 { return math.Abs(b-a) / a }

// lingerShare is the share of coalesced batches flushed by the linger timer
// rather than by filling up, between two snapshots.
func lingerShare(a, b ingress.CoalescerStats) float64 {
	linger := b.FlushLinger - a.FlushLinger
	all := linger + (b.FlushFill - a.FlushFill) + (b.FlushClose - a.FlushClose)
	return float64(linger) / float64(all)
}

// migrationSummary reads the median group and stop-window times from the
// nodes' ops registries, weighting each node's median by its count.
func migrationSummary(f *fleet) (groupMs, stopMs float64) {
	read := func(name string) float64 {
		var sum float64
		var total uint64
		for _, n := range f.dep.Nodes {
			count, p50, _, ok := n.Ops().Summary(name)
			if !ok || count == 0 {
				continue
			}
			sum += float64(count) * float64(p50) / float64(time.Millisecond)
			total += count
		}
		return sum / float64(total)
	}
	return read("aeon_migration_group_seconds"), read("aeon_migration_stop_seconds")
}
