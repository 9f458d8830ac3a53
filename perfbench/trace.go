package main

// The tracing mesh: a transport.Mesh wrapper that times every frame at the
// two layer boundaries the transport owns — the caller's Endpoint.Call,
// Stream.Call and CallBatch, and the Handler a peer attached — and counts
// frames at the same boundaries. Counting is always on (one atomic add per
// frame); timing only while the tracer is enabled, so one deployment gives
// both an untraced and a traced window with identical wiring.

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"aeon/internal/ingress"
	"aeon/internal/node"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// role is which part of the fleet an endpoint belongs to.
type role int

const (
	roleIngress role = iota
	roleNode
	roleStore
	numRoles
)

func roleOf(id transport.NodeID) role {
	switch {
	case id >= node.StoreIDBase:
		return roleStore
	case id >= ingress.ClientIDBase:
		return roleIngress
	default:
		return roleNode
	}
}

// Frame kinds the tracer tells apart: the node wire kinds, indexing
// frameKinds.
const (
	kindSubmit = iota
	kindSubmitBatch
	kindStore
	kindTransfer
	kindTransferQuery
	kindMigrate
	kindReplicate
	kindPing
	kindOther // any kind not listed
)

// frameKinds names each kind as the report does: the wire kind without its
// "node." prefix.
var frameKinds = [...]string{"submit", "submit.batch", "store", "transfer", "transfer.query", "migrate", "replicate.notify", "ping", "other"}

func kindIndex(kind string) int {
	k := strings.TrimPrefix(kind, "node.")
	for i, name := range frameKinds[:kindOther] {
		if name == k {
			return i
		}
	}
	return kindOther
}

// spanStat accumulates one (role, kind) boundary.
type spanStat struct {
	frames atomic.Int64 // always counted
	ns     atomic.Int64 // summed span time, traced only
	evNs   atomic.Int64 // span time weighted by events in the frame, traced only
	errs   atomic.Int64 // failed frames plus failed events in batch responses, traced only
}

// tracer holds the counters of one deployment.
type tracer struct {
	on     atomic.Bool
	call   [numRoles][len(frameKinds)]spanStat // caller side, by caller role
	handle [numRoles][len(frameKinds)]spanStat // handler side, by handler role
}

// traceMesh wraps a mesh so every endpoint attached through it is traced.
type traceMesh struct {
	inner transport.Mesh
	t     *tracer
}

func (t *tracer) wrap(m transport.Mesh) transport.Mesh { return &traceMesh{inner: m, t: t} }

// Attach implements transport.Mesh, timing h around each request served.
func (m *traceMesh) Attach(id transport.NodeID, h transport.Handler) (transport.Endpoint, error) {
	t := m.t
	r := roleOf(id)
	traced := func(ctx context.Context, from transport.NodeID, req transport.Message) (transport.Message, error) {
		st := &t.handle[r][kindIndex(req.Kind)]
		st.frames.Add(1)
		if !t.on.Load() {
			return h(ctx, from, req)
		}
		start := time.Now()
		resp, err := h(ctx, from, req)
		st.ns.Add(int64(time.Since(start)))
		if err != nil {
			st.errs.Add(1)
		} else {
			st.errs.Add(int64(failedEvents(req.Kind, resp)))
		}
		return resp, err
	}
	ep, err := m.inner.Attach(id, traced)
	if err != nil {
		return nil, err
	}
	return &traceEndpoint{Endpoint: ep, t: t, role: r}, nil
}

// failedEvents counts the failed events a submit response reports.
func failedEvents(kind string, resp transport.Message) int {
	if !schema.IsHotFrame(resp.Payload) {
		return 0
	}
	switch kindIndex(kind) {
	case kindSubmit:
		var p schema.SubmitResp
		if p.UnmarshalWire(resp.Payload) == nil && p.Err != "" {
			return 1
		}
	case 1:
		var p schema.SubmitBatchResp
		if p.UnmarshalWire(resp.Payload) != nil {
			return 0
		}
		n := 0
		for i := range p.Outcomes {
			if p.Outcomes[i].Err != "" {
				n++
			}
		}
		return n
	}
	return 0
}

// traceEndpoint times the calls one endpoint makes. It forwards Streamer, so
// callers that open pipelined streams keep doing so through the wrapper.
type traceEndpoint struct {
	transport.Endpoint
	t    *tracer
	role role
}

// begin counts n frames of one kind and returns their stat and start time
// (zero when tracing is off).
func (e *traceEndpoint) begin(kind string, n int) (*spanStat, time.Time) {
	st := &e.t.call[e.role][kindIndex(kind)]
	st.frames.Add(int64(n))
	if !e.t.on.Load() {
		return st, time.Time{}
	}
	return st, time.Now()
}

func (e *traceEndpoint) end(st *spanStat, start time.Time, reqs []transport.Message, err error) {
	if start.IsZero() {
		return
	}
	events := 0
	for i := range reqs {
		events += schema.HotFrameEvents(reqs[i].Payload)
	}
	st.add(time.Since(start), len(reqs), events, err)
}

// add charges one caller-side flight of frames that took d and carried
// events events in total.
func (st *spanStat) add(d time.Duration, frames, events int, err error) {
	st.ns.Add(int64(d) * int64(frames))
	st.evNs.Add(int64(d) * int64(events))
	if err != nil {
		st.errs.Add(1)
	}
}

func (e *traceEndpoint) Call(ctx context.Context, to transport.NodeID, req transport.Message) (transport.Message, error) {
	st, start := e.begin(req.Kind, 1)
	resp, err := e.Endpoint.Call(ctx, to, req)
	e.end(st, start, []transport.Message{req}, err)
	return resp, err
}

// Stream implements transport.Streamer when the wrapped endpoint does.
func (e *traceEndpoint) Stream(to transport.NodeID) (transport.Stream, error) {
	s, ok := e.Endpoint.(transport.Streamer)
	if !ok {
		// Callers fall back to one-shot Call, as they would unwrapped.
		return nil, fmt.Errorf("endpoint %v has no pipelined streams", e.ID())
	}
	inner, err := s.Stream(to)
	if err != nil {
		return nil, err
	}
	return &traceStream{Stream: inner, ep: e}, nil
}

// traceStream times Call and CallBatch and forwards BatchCaller.
type traceStream struct {
	transport.Stream
	ep *traceEndpoint
}

func (s *traceStream) Call(ctx context.Context, req transport.Message) (transport.Message, error) {
	st, start := s.ep.begin(req.Kind, 1)
	resp, err := s.Stream.Call(ctx, req)
	s.ep.end(st, start, []transport.Message{req}, err)
	return resp, err
}

func (s *traceStream) CallBatch(ctx context.Context, reqs []transport.Message) ([]transport.Message, []error, error) {
	if len(reqs) == 0 {
		return transport.StreamCallBatch(ctx, s.Stream, reqs)
	}
	st, start := s.ep.begin(reqs[0].Kind, len(reqs))
	resps, errs, err := transport.StreamCallBatch(ctx, s.Stream, reqs)
	s.ep.end(st, start, reqs, err)
	return resps, errs, err
}

// traceSnap is a plain copy of a tracer's counters.
type traceSnap struct {
	call, handle [numRoles][len(frameKinds)]spanVals
}

type spanVals struct{ frames, ns, evNs, errs int64 }

func (t *tracer) snap() traceSnap {
	var s traceSnap
	for r := 0; r < int(numRoles); r++ {
		for k := range frameKinds {
			s.call[r][k] = t.call[r][k].vals()
			s.handle[r][k] = t.handle[r][k].vals()
		}
	}
	return s
}

func (st *spanStat) vals() spanVals {
	return spanVals{st.frames.Load(), st.ns.Load(), st.evNs.Load(), st.errs.Load()}
}

// sub returns the counters accumulated between o and s.
func (s traceSnap) sub(o traceSnap) traceSnap {
	var d traceSnap
	for r := 0; r < int(numRoles); r++ {
		for k := range frameKinds {
			d.call[r][k] = s.call[r][k].minus(o.call[r][k])
			d.handle[r][k] = s.handle[r][k].minus(o.handle[r][k])
		}
	}
	return d
}

func (v spanVals) minus(o spanVals) spanVals {
	return spanVals{v.frames - o.frames, v.ns - o.ns, v.evNs - o.evNs, v.errs - o.errs}
}

// callKind sums one kind's caller-side counters over every role.
func (s traceSnap) callKind(k int) spanVals {
	var v spanVals
	for r := 0; r < int(numRoles); r++ {
		v = v.plus(s.call[r][k])
	}
	return v
}

// frames counts every frame any endpoint sent.
func (s traceSnap) frames() int64 {
	var n int64
	for k := range frameKinds {
		n += s.callKind(k).frames
	}
	return n
}

func (v spanVals) plus(o spanVals) spanVals {
	return spanVals{v.frames + o.frames, v.ns + o.ns, v.evNs + o.evNs, v.errs + o.errs}
}

// submitFrames counts submit and batch-submit frames sent by one role.
func (s traceSnap) submitFrames(r role) int64 {
	return s.call[r][kindSubmit].frames + s.call[r][kindSubmitBatch].frames
}

// selfNs is a layer's self time from aggregate spans: the time covered by
// its own spans minus the part its child spans cover. Spans of one request
// nest strictly (a child starts after and ends before its parent), so the
// covered parts sum.
func selfNs(parent int64, children ...int64) int64 {
	for _, c := range children {
		parent -= c
	}
	return parent
}
