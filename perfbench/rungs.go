package main

// Isolated rungs: the same seeded ops replayed against single layers with no
// fleet around them — the hot-frame codec, the runtime's Submit, and the
// ownership graph's Resolve — so a change to one layer shows in its own
// number even when the fleet's end-to-end figures hide it.

import (
	"fmt"
	"runtime"
	"time"

	"aeon/internal/schema"
	"aeon/internal/workload"
)

// rungPasses is how many times each rung replays the op table.
const rungPasses = 4

// runRungs measures every rung on the scenario and adds its metrics to m.
func runRungs(scenario string, t *opTable, m *result) error {
	scen, err := workload.NewScenario(scenario, fleetNodes)
	if err != nil {
		return err
	}
	rt, err := workload.NewScenarioRuntime(scen, fleetNodes)
	if err != nil {
		return err
	}
	defer rt.Close()

	// core: Runtime.Submit. The first pass keeps each op's outcome for the
	// codec rung's response frames.
	outcomes := make([]schema.BatchOutcome, len(t.items))
	for i := range t.items {
		res, err := rt.Submit(t.items[i].Target, t.items[i].Method, t.items[i].Args...)
		outcomes[i] = schema.BatchOutcome{Result: res, Host: 1}
		if err != nil {
			outcomes[i] = schema.BatchOutcome{Host: 1, Err: err.Error(), ErrKind: "app"}
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for p := 0; p < rungPasses; p++ {
		for i := range t.items {
			_, _ = rt.Submit(t.items[i].Target, t.items[i].Method, t.items[i].Args...)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(rungPasses * len(t.items))
	m.add("core.submit_ns_per_ev", float64(elapsed.Nanoseconds())/n, "ns")
	m.add("core.alloc_bytes_per_ev", float64(after.TotalAlloc-before.TotalAlloc)/n, "B")

	// ownership: Graph.Resolve of each op's target.
	g := rt.Graph()
	start = time.Now()
	for p := 0; p < rungPasses; p++ {
		for i := range t.items {
			if _, _, err := g.Resolve(t.items[i].Target); err != nil {
				return fmt.Errorf("resolve %v: %w", t.items[i].Target, err)
			}
		}
	}
	m.add("ownership.resolve_ns", float64(time.Since(start).Nanoseconds())/n, "ns")

	// schema: SubmitBatchReq and SubmitBatchResp at frame sizes 1 and 128.
	events := make([]schema.BatchEvent, len(t.items))
	for i, it := range t.items {
		events[i] = schema.BatchEvent{Target: it.Target, Method: it.Method, Args: it.Args}
	}
	for _, size := range []int{1, batchSize} {
		enc, dec, bytes, err := codecRung(events, outcomes, size)
		if err != nil {
			return err
		}
		sfx := fmt.Sprintf(".b%d", size)
		m.add("schema.encode_ns_per_ev"+sfx, enc, "ns")
		m.add("schema.decode_ns_per_ev"+sfx, dec, "ns")
		m.add("schema.bytes_per_ev"+sfx, bytes, "B")
	}
	return nil
}

// codecRung encodes and decodes every op as request and response frames of
// size events each, returning ns per event for each direction and wire
// bytes per event. Each pass encodes every frame into one buffer, then
// decodes them all, so the clock is read twice per pass, not per frame.
func codecRung(events []schema.BatchEvent, outcomes []schema.BatchOutcome, size int) (enc, dec, bytes float64, err error) {
	frames := len(events) / size
	reqEnds, respEnds := make([]int, frames), make([]int, frames)
	var reqBuf, respBuf []byte
	var encNs, decNs time.Duration
	var q schema.SubmitBatchReq
	var p schema.SubmitBatchResp
	for pass := 0; pass < rungPasses; pass++ {
		reqBuf, respBuf = reqBuf[:0], respBuf[:0]
		start := time.Now()
		for k := 0; k < frames; k++ {
			req := schema.SubmitBatchReq{Events: events[k*size : (k+1)*size]}
			resp := schema.SubmitBatchResp{Outcomes: outcomes[k*size : (k+1)*size]}
			if reqBuf, err = req.MarshalWire(reqBuf); err != nil {
				return 0, 0, 0, fmt.Errorf("encode request: %w", err)
			}
			if respBuf, err = resp.MarshalWire(respBuf); err != nil {
				return 0, 0, 0, fmt.Errorf("encode response: %w", err)
			}
			reqEnds[k], respEnds[k] = len(reqBuf), len(respBuf)
		}
		mid := time.Now()
		reqAt, respAt := 0, 0
		for k := 0; k < frames; k++ {
			if err = q.UnmarshalWire(reqBuf[reqAt:reqEnds[k]]); err != nil {
				return 0, 0, 0, fmt.Errorf("decode request: %w", err)
			}
			if err = p.UnmarshalWire(respBuf[respAt:respEnds[k]]); err != nil {
				return 0, 0, 0, fmt.Errorf("decode response: %w", err)
			}
			reqAt, respAt = reqEnds[k], respEnds[k]
		}
		encNs += mid.Sub(start)
		decNs += time.Since(mid)
	}
	n := float64(rungPasses * frames * size)
	perPass := float64(frames * size)
	return float64(encNs.Nanoseconds()) / n, float64(decNs.Nanoseconds()) / n, float64(len(reqBuf)+len(respBuf)) / perPass, nil
}
