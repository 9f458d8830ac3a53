package node

import (
	"context"
	"fmt"
	"time"

	"aeon/internal/cloudstore"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// RemoteStore is a cloudstore.ReplicaAPI client over the transport mesh:
// every fenced operation is one request/response exchange with a store
// replica. Wrapped as a replica of a cloudstore.Replicated, it lets all
// processes of a deployment journal migrations, mappings, and checkpoints
// into one authoritative store plane — the paper's cloud-storage role
// (§ 5.1), with store-server processes (or a store-serving node) standing
// in for ZooKeeper/S3.
//
// Every call runs under a context derived from the owner's lifecycle (the
// node's base context, canceled on Close): when a partition client abandons
// a replica mid-failover, its in-flight calls are canceled instead of
// stacking up behind dead peers until CallTimeout.
type RemoteStore struct {
	node *Node // set when owned by a node: endpoint/timeout/ctx resolve lazily

	// Standalone wiring (partition clients owned by the harness or driver).
	ep      transport.Endpoint
	to      transport.NodeID
	timeout time.Duration
	base    context.Context
}

var _ cloudstore.ReplicaAPI = (*RemoteStore)(nil)

// NewRemoteStore returns a mesh client for the store replica at `to`,
// bounding each call by timeout and canceling in-flight calls when base is
// canceled. A nil base means context.Background().
func NewRemoteStore(ep transport.Endpoint, to transport.NodeID, timeout time.Duration, base context.Context) *RemoteStore {
	if base == nil {
		base = context.Background()
	}
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	return &RemoteStore{ep: ep, to: to, timeout: timeout, base: base}
}

// callCtx derives the per-call context: the owning node's base context when
// node-owned (so node shutdown cancels in-flight store ops), the configured
// base otherwise.
func (r *RemoteStore) callCtx() (context.Context, context.CancelFunc) {
	if r.node != nil {
		return context.WithTimeout(r.node.baseCtx, r.node.cfg.CallTimeout)
	}
	return context.WithTimeout(r.base, r.timeout)
}

func (r *RemoteStore) endpoint() transport.Endpoint {
	if r.node != nil {
		return r.node.ep
	}
	return r.ep
}

// call performs one store exchange on the hot codec. The request encodes
// into a pooled buffer: endpoints do not retain request payloads past Call,
// so the buffer recycles per exchange.
func (r *RemoteStore) call(req schema.StoreReq) (schema.StoreResp, error) {
	buf := schema.GetFrameBuf()
	payload, err := req.MarshalWire((*buf)[:0])
	if err != nil {
		schema.PutFrameBuf(buf)
		return schema.StoreResp{}, err
	}
	*buf = payload
	ctx, cancel := r.callCtx()
	defer cancel()
	raw, err := r.endpoint().Call(ctx, r.to, transport.Message{Kind: KindStore, Payload: payload})
	schema.PutFrameBuf(buf)
	if err != nil {
		return schema.StoreResp{}, fmt.Errorf("store %s via %v: %w", req.Op, r.to, err)
	}
	var resp schema.StoreResp
	if err := resp.UnmarshalWire(raw.Payload); err != nil {
		return schema.StoreResp{}, fmt.Errorf("store %s via %v: %w", req.Op, r.to, err)
	}
	if resp.Err != "" {
		// Return the decoded response alongside the typed error: Promote's
		// fenced refusal carries the accepted epoch in Version.
		return resp, WireError(resp.ErrKind, resp.Err)
	}
	return resp, nil
}

// GetF implements cloudstore.ReplicaAPI: a fenced read of one key.
func (r *RemoteStore) GetF(part int, epoch uint64, key string) ([]byte, uint64, error) {
	resp, err := r.call(schema.StoreReq{Op: storeGetF, Part: part, Epoch: epoch, Key: key})
	if err != nil {
		return nil, 0, err
	}
	return resp.Value, resp.Version, nil
}

// ListF implements cloudstore.ReplicaAPI: a fenced prefix listing.
func (r *RemoteStore) ListF(part int, epoch uint64, prefix string) ([]string, error) {
	resp, err := r.call(schema.StoreReq{Op: storeListF, Part: part, Epoch: epoch, Key: prefix})
	if err != nil {
		return nil, err
	}
	return resp.Keys, nil
}

// PutF implements cloudstore.ReplicaAPI: a fenced unconditional write.
func (r *RemoteStore) PutF(part int, epoch uint64, key string, value []byte) (uint64, error) {
	resp, err := r.call(schema.StoreReq{Op: storePutF, Part: part, Epoch: epoch, Key: key, Value: value})
	if err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// PutBatchF implements cloudstore.ReplicaAPI: the whole fenced batch is one
// mesh round trip and one charged store write, preserving the
// batched-migration and batched-checkpoint cost model across the process
// boundary.
func (r *RemoteStore) PutBatchF(part int, epoch uint64, entries map[string][]byte) (uint64, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	resp, err := r.call(schema.StoreReq{Op: storePutBatchF, Part: part, Epoch: epoch, Entries: entries})
	if err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// CreateBatchF implements cloudstore.ReplicaAPI: a fenced atomic
// create-only batch in one mesh round trip.
func (r *RemoteStore) CreateBatchF(part int, epoch uint64, entries map[string][]byte) (uint64, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	resp, err := r.call(schema.StoreReq{Op: storeCreateBatchF, Part: part, Epoch: epoch, Entries: entries})
	if err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// CASF implements cloudstore.ReplicaAPI: a fenced compare-and-swap.
func (r *RemoteStore) CASF(part int, epoch uint64, key string, expect uint64, value []byte) (uint64, error) {
	resp, err := r.call(schema.StoreReq{Op: storeCASF, Part: part, Epoch: epoch, Key: key, Expect: expect, Value: value})
	if err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// DeleteF implements cloudstore.ReplicaAPI: fenced delete returning the
// tombstone version.
func (r *RemoteStore) DeleteF(part int, epoch uint64, key string) (uint64, error) {
	resp, err := r.call(schema.StoreReq{Op: storeDeleteF, Part: part, Epoch: epoch, Key: key})
	if err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// DeleteBatchF implements cloudstore.ReplicaAPI: fenced batch delete
// returning the highest tombstone version.
func (r *RemoteStore) DeleteBatchF(part int, epoch uint64, keys []string) (uint64, error) {
	if len(keys) == 0 {
		return 0, nil
	}
	resp, err := r.call(schema.StoreReq{Op: storeDelBatchF, Part: part, Epoch: epoch, Keys: keys})
	if err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// Apply implements cloudstore.ReplicaAPI: forward a fenced commit to a
// follower replica.
func (r *RemoteStore) Apply(part int, epoch uint64, c cloudstore.Commit) error {
	_, err := r.call(schema.StoreReq{Op: storeApply, Part: part, Epoch: epoch, Commit: c})
	return err
}

// Promote implements cloudstore.ReplicaAPI: claim the partition's primary
// role at epoch on the remote replica.
func (r *RemoteStore) Promote(part int, epoch uint64) (uint64, error) {
	resp, err := r.call(schema.StoreReq{Op: storePromote, Part: part, Epoch: epoch})
	if err != nil {
		// The accepted fence rides Version even on refusal, so a fenced
		// caller can adopt the newer epoch without a second round trip.
		return resp.Version, err
	}
	return resp.Version, nil
}

// FenceEpoch implements cloudstore.ReplicaAPI.
func (r *RemoteStore) FenceEpoch(part int) (uint64, error) {
	resp, err := r.call(schema.StoreReq{Op: storeEpoch, Part: part})
	if err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// execStoreOp executes one store wire request against a replica surface. It
// is the single translation point between store frames and
// cloudstore.ReplicaAPI, shared by store-serving nodes and dedicated store
// servers so both speak exactly the same protocol. Every data op is fenced;
// any other selector is refused as an unknown store op.
func execStoreOp(st cloudstore.ReplicaAPI, owner transport.NodeID, req *schema.StoreReq) schema.StoreResp {
	var resp schema.StoreResp
	var err error
	switch req.Op {
	case storeGetF:
		resp.Value, resp.Version, err = st.GetF(req.Part, req.Epoch, req.Key)
	case storeListF:
		resp.Keys, err = st.ListF(req.Part, req.Epoch, req.Key)
	case storePutF:
		resp.Version, err = st.PutF(req.Part, req.Epoch, req.Key, req.Value)
	case storePutBatchF:
		resp.Version, err = st.PutBatchF(req.Part, req.Epoch, req.Entries)
	case storeCreateBatchF:
		resp.Version, err = st.CreateBatchF(req.Part, req.Epoch, req.Entries)
	case storeCASF:
		resp.Version, err = st.CASF(req.Part, req.Epoch, req.Key, req.Expect, req.Value)
	case storeDeleteF:
		resp.Version, err = st.DeleteF(req.Part, req.Epoch, req.Key)
	case storeDelBatchF:
		resp.Version, err = st.DeleteBatchF(req.Part, req.Epoch, req.Keys)
	case storeApply:
		err = st.Apply(req.Part, req.Epoch, req.Commit)
	case storePromote:
		resp.Version, err = st.Promote(req.Part, req.Epoch)
	case storeEpoch:
		resp.Version, err = st.FenceEpoch(req.Part)
	default:
		err = fmt.Errorf("node %v: unknown store op %q", owner, req.Op)
	}
	resp.Err, resp.ErrKind = errFields(err)
	return resp
}

// serveStoreFrame decodes one store request frame, runs it through exec and
// encodes the response frame.
func serveStoreFrame(payload []byte, exec func(*schema.StoreReq) schema.StoreResp) (transport.Message, error) {
	var req schema.StoreReq
	if err := req.UnmarshalWire(payload); err != nil {
		return transport.Message{}, err
	}
	resp := exec(&req)
	out, err := resp.MarshalWire(nil)
	return transport.Message{Kind: KindStore, Payload: out}, err
}
