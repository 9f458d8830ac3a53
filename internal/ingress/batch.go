package ingress

// Batched submits. SubmitBatch packs many events into SubmitBatchReq frames —
// one frame per destination node (chunked at Config.MaxBatch) — so the fleet
// pays one wakeup and one admission per frame instead of per event. Go's
// futures ride the same frames transparently: a per-node coalescer holds each
// async submit for a short linger window (the client-side analogue of the mux
// writer's one-Gosched flush linger) and flushes when the batch fills or the
// window elapses. Outcomes are per-event: one event's typed error, stale
// route, or backpressure rejection never poisons its batchmates.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"aeon/internal/node"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// BatchItem is one event in a client-side batch.
type BatchItem struct {
	Target ownership.ID
	Method string
	Args   []any
}

// BatchResult is the per-event outcome of SubmitBatch. Err carries the same
// typed sentinels as Submit (core.ErrUnknownContext, core.ErrBackpressure,
// ...); Result is only meaningful when Err is nil.
type BatchResult struct {
	Result any
	Err    error
}

// SubmitBatch executes many events in as few frames as possible: items are
// grouped by their routed node, each group rides SubmitBatchReq frames
// (chunked at Config.MaxBatch), and groups fly concurrently. The returned
// slice is index-aligned with items. Failures are per-event — a rejected or
// failed event never affects its batchmates — except transport-level faults,
// which fail every event that rode the broken connection.
func (c *Client) SubmitBatch(items []BatchItem) []BatchResult {
	res := make([]BatchResult, len(items))
	if len(items) == 0 {
		return res
	}
	if c.closed.Load() {
		for i := range res {
			res[i].Err = ErrClientClosed
		}
		return res
	}
	routes := make([]transport.NodeID, len(items))
	single := true
	for i := range items {
		routes[i] = c.route(items[i].Target)
		if routes[i] != routes[0] {
			single = false
		}
	}
	// Single-destination batches — the common case once routes are warm —
	// skip the grouping map and the per-group goroutine.
	if single {
		evs := make([]schema.BatchEvent, len(items))
		for i := range items {
			evs[i] = schema.BatchEvent{Target: items[i].Target, Method: items[i].Method, Args: items[i].Args}
		}
		return c.submitBatchTo(routes[0], evs)
	}
	groups := make(map[transport.NodeID][]int)
	for i := range items {
		groups[routes[i]] = append(groups[routes[i]], i)
	}
	var wg sync.WaitGroup
	for to, idxs := range groups {
		wg.Add(1)
		go func(to transport.NodeID, idxs []int) {
			defer wg.Done()
			evs := make([]schema.BatchEvent, len(idxs))
			for j, i := range idxs {
				evs[j] = schema.BatchEvent{Target: items[i].Target, Method: items[i].Method, Args: items[i].Args}
			}
			out := c.submitBatchTo(to, evs)
			for j, i := range idxs {
				res[i] = out[j]
			}
		}(to, idxs)
	}
	wg.Wait()
	return res
}

// submitBatchTo ships one node's events as pipelined SubmitBatchReq frames
// and returns outcomes index-aligned with events.
func (c *Client) submitBatchTo(to transport.NodeID, events []schema.BatchEvent) []BatchResult {
	res := make([]BatchResult, len(events))
	if c.closed.Load() {
		for i := range res {
			res[i].Err = ErrClientClosed
		}
		return res
	}
	// One frame suffices for most batches; ship it directly so small batches
	// pay no more than a plain Submit beyond the frame's own bytes.
	if len(events) <= c.cfg.MaxBatch {
		c.submitChunk(to, events, res, 0, len(events))
		return res
	}

	// Chunk at MaxBatch; each chunk is one frame. chunkRef remembers where a
	// chunk's events live in the flat slices so outcomes map back by index.
	type chunkRef struct {
		start, n int
		buf      *[]byte
	}
	var (
		refs []chunkRef
		msgs []transport.Message
	)
	for start := 0; start < len(events); start += c.cfg.MaxBatch {
		end := start + c.cfg.MaxBatch
		if end > len(events) {
			end = len(events)
		}
		req := schema.SubmitBatchReq{Events: events[start:end], Trace: c.nextTrace()}
		buf := schema.GetFrameBuf()
		payload, err := req.MarshalWire((*buf)[:0])
		if err != nil {
			schema.PutFrameBuf(buf)
			for i := start; i < end; i++ {
				res[i].Err = fmt.Errorf("ingress: encode batch: %w", err)
			}
			continue
		}
		*buf = payload
		refs = append(refs, chunkRef{start: start, n: end - start, buf: buf})
		msgs = append(msgs, transport.Message{Kind: node.KindSubmitBatch, Payload: payload})
	}
	if len(msgs) == 0 {
		return res
	}

	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.CallTimeout)
	defer cancel()

	var (
		resps []transport.Message
		errs  []error
	)
	st, fatal := c.stream(to)
	if fatal == nil {
		resps, errs, fatal = transport.StreamCallBatch(ctx, st, msgs)
		if fatal != nil {
			c.dropStream(to, st)
		}
	}
	if fatal != nil {
		for _, ref := range refs {
			schema.PutFrameBuf(ref.buf)
			for i := ref.start; i < ref.start+ref.n; i++ {
				res[i].Err = fmt.Errorf("ingress: batch submit to %v: %w", to, fatal)
			}
		}
		return res
	}

	for k, ref := range refs {
		schema.PutFrameBuf(ref.buf) // endpoints do not retain payloads past the call
		if errs[k] != nil {
			var remote *transport.RemoteError
			if !errors.As(errs[k], &remote) {
				c.dropStream(to, st)
			}
			for i := ref.start; i < ref.start+ref.n; i++ {
				res[i].Err = fmt.Errorf("ingress: batch submit to %v: %w", to, errs[k])
			}
			continue
		}
		c.applyBatchResp(to, events, res, ref.start, ref.n, resps[k])
	}
	return res
}

// submitChunk ships one frame's worth of events and fills its outcome slots.
func (c *Client) submitChunk(to transport.NodeID, events []schema.BatchEvent, res []BatchResult, start, n int) {
	fail := func(err error) {
		for i := start; i < start+n; i++ {
			res[i].Err = err
		}
	}
	req := schema.SubmitBatchReq{Events: events[start : start+n], Trace: c.nextTrace()}
	buf := schema.GetFrameBuf()
	payload, err := req.MarshalWire((*buf)[:0])
	if err != nil {
		schema.PutFrameBuf(buf)
		fail(fmt.Errorf("ingress: encode batch: %w", err))
		return
	}
	*buf = payload

	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.CallTimeout)
	defer cancel()
	raw, err := c.call(ctx, to, transport.Message{Kind: node.KindSubmitBatch, Payload: payload})
	schema.PutFrameBuf(buf) // endpoints do not retain payloads past the call
	if err != nil {
		fail(fmt.Errorf("ingress: batch submit to %v: %w", to, err))
		return
	}
	c.applyBatchResp(to, events, res, start, n, raw)
}

// applyBatchResp decodes one chunk's response and fills its slice of
// outcomes, repairing the routing cache from each event's authoritative host.
func (c *Client) applyBatchResp(to transport.NodeID, events []schema.BatchEvent, res []BatchResult, start, n int, raw transport.Message) {
	fail := func(err error) {
		for i := start; i < start+n; i++ {
			res[i].Err = err
		}
	}
	var br schema.SubmitBatchResp
	if err := br.UnmarshalWire(raw.Payload); err != nil {
		fail(fmt.Errorf("ingress: decode batch response: %w", err))
		return
	}
	if len(br.Outcomes) != n {
		fail(fmt.Errorf("ingress: node %v returned %d outcomes for a %d-event batch", to, len(br.Outcomes), n))
		return
	}
	for j := 0; j < n; j++ {
		out := &br.Outcomes[j]
		// Repair the cache even on per-event failure — the authoritative host
		// is exactly what a mis-routed event needs.
		c.learn(events[start+j].Target, out.Host)
		if out.Err != "" {
			res[start+j].Err = node.WireError(out.ErrKind, out.Err)
		} else {
			res[start+j].Result = out.Result
		}
	}
}

// coalescer batches async submits bound for one node. add holds each event
// until the batch fills (Config.MaxBatch) or the linger window elapses
// (Config.Linger), then flushes every held future as one SubmitBatchReq
// frame. Flush and Close race on the pending slices under mu; take hands
// each future to exactly one owner.
type coalescer struct {
	c  *Client
	to transport.NodeID

	mu      sync.Mutex
	events  []schema.BatchEvent
	futures []*Future
	timer   *time.Timer
}

// take claims the pending batch. Callers hold mu.
func (co *coalescer) take() ([]schema.BatchEvent, []*Future) {
	events, futures := co.events, co.futures
	co.events, co.futures = nil, nil
	if co.timer != nil {
		co.timer.Stop()
		co.timer = nil
	}
	return events, futures
}

// add enqueues one async submit, arming the linger timer on the first event
// and flushing inline when the batch fills.
func (co *coalescer) add(ev schema.BatchEvent, f *Future) {
	co.mu.Lock()
	co.events = append(co.events, ev)
	co.futures = append(co.futures, f)
	if len(co.events) == 1 {
		co.timer = time.AfterFunc(co.c.cfg.Linger, co.flushAfterLinger)
	}
	if len(co.events) >= co.c.cfg.MaxBatch {
		events, futures := co.take()
		co.mu.Unlock()
		co.c.flushFill.Add(1)
		go co.c.flushBatch(co.to, events, futures)
		return
	}
	co.mu.Unlock()
}

func (co *coalescer) flushAfterLinger() {
	co.mu.Lock()
	events, futures := co.take()
	co.mu.Unlock()
	if len(events) > 0 {
		co.c.flushLinger.Add(1)
		co.c.flushBatch(co.to, events, futures)
	}
}

// flushBatch ships a coalesced batch and resolves its futures, releasing one
// window slot per future (the slot Go acquired).
func (c *Client) flushBatch(to transport.NodeID, events []schema.BatchEvent, futures []*Future) {
	c.coalFlushes.Add(1)
	c.coalEvents.Add(uint64(len(events)))
	out := c.submitBatchTo(to, events)
	for i, f := range futures {
		f.result, f.err = out[i].Result, out[i].Err
		close(f.done)
		<-c.window
	}
}

// coalescerFor returns the per-node coalescer, creating it on first use; nil
// means the client is closed.
func (c *Client) coalescerFor(to transport.NodeID) *coalescer {
	c.coalMu.Lock()
	defer c.coalMu.Unlock()
	if c.coals == nil {
		return nil
	}
	co, ok := c.coals[to]
	if !ok {
		co = &coalescer{c: c, to: to}
		c.coals[to] = co
	}
	return co
}
