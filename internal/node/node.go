// Package node implements AEON's distributed node runtime: it wraps one
// process's server-slice of the system and attaches it to a transport.Mesh,
// so N AEON servers run as N OS processes exchanging wire frames instead of
// sharing an address space.
//
// Deployment model. Every node process builds the same cluster topology and
// the same ownership network (deterministic construction from a shared
// workload spec — identical creation order yields identical context IDs),
// but each process *embodies* only its own server(s): context state is
// authoritative only on the node hosting the context, and events execute on
// the node embodying the server that hosts their sequencing point (the
// dominator). The remaining replicas are routing metadata — exactly the
// paper's split between the authoritative context mapping in cloud storage
// and the cached mapping on every host (§ 5.1).
//
// Wire protocol (see wire.go): client submit and cross-node event
// forwarding through one executor, handleSubmitBatch, for single-event and
// batch frames alike (placement resolved against the local directory
// snapshot; misses forward along the directory's answer as batch frames over
// pipelined mux streams, stale callers pay the forwarding hop of § 5.2 and
// repair their cache from the response), remote
// cloud-store access (store replicas — a store-serving node or dedicated
// store servers — answer fenced ops, so every process journals into one
// authoritative store plane), and
// migration state transfer (the engine's step IV ships serialized member
// state to the destination node instead of relying on a shared registry).
//
// Dynamic topologies: with Config.Replicate, structural mutations —
// runtime context creation (Call.NewContext), edge changes, context
// destruction, server membership — are sequenced through the replicated
// ownership-metadata control plane (internal/replication): a CAS-appended
// mutation log in the authoritative cloud store that every node tails and
// applies in order, with a node.replicate.notify frame as the steady-state
// propagation hint. Log order assigns context IDs, so a context created at
// runtime on one node is immediately submittable from every other; submits
// carry the sender's applied log sequence and the receiver blocks on that
// sequence before admission, so a lagging replica can never reject a
// freshly created target.
package node

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/emanager"
	"aeon/internal/metrics"
	"aeon/internal/ops"
	"aeon/internal/ownership"
	"aeon/internal/replication"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// Config describes one node process.
type Config struct {
	// ID is the node's mesh address. By default the node embodies the
	// server with the same ID (ServerID and transport.NodeID are the same
	// type), which is the 1:1 node-per-server deployment.
	ID transport.NodeID
	// Runtime is the node's runtime over the replicated topology. Start
	// installs the multi-process hooks on it (Runtime.SetRemote).
	Runtime *core.Runtime
	// Servers lists the servers this process embodies. Empty means
	// {ServerID(ID)}.
	Servers []cluster.ServerID
	// LocalStore is this process's in-memory store replica. Required when
	// StoreReplicas names this node (it then serves that replica to every
	// peer over the mesh); ignored otherwise.
	LocalStore *cloudstore.Store
	// StoreReplicas lays out the store plane: partition i of the keyspace is
	// served by StoreReplicas[i]'s replica set (primary first), each replica
	// a mesh address — a dedicated store-server process (ServeStore), or a
	// node's own ID, which routes to its LocalStore. The node's store handle
	// is a Partitioned client over per-partition Replicated clients with
	// CAS-fenced failover; a single store node is the one-partition,
	// one-replica plane {{Replicas: {storeNode}}}. Empty means that plane
	// with this node's own LocalStore as the replica. Every node of a
	// deployment must be configured with the same partition list, in the
	// same order.
	StoreReplicas []StorePartition
	// Manager configures the node's elasticity manager; its migration
	// engine is wired to transfer state over the mesh automatically.
	Manager emanager.Config
	// MaxHops bounds submit forwarding chains. Zero means 4.
	MaxHops int
	// CallTimeout bounds each mesh call (submit forwards, store ops). Zero
	// means 10s. Transfers and commanded migrations use TransferTimeout.
	CallTimeout time.Duration
	// TransferTimeout bounds state-transfer and commanded-migration calls,
	// which move real bytes and sleep through protocol windows. Zero means
	// 60s.
	TransferTimeout time.Duration
	// NoPlacementLearning disables repairing the local directory from
	// submit responses. The mesh bench uses it to keep a deliberately stale
	// directory paying the forwarding hop on every call.
	NoPlacementLearning bool
	// Replicate sequences structural mutations (runtime context creation,
	// edge changes, server membership) through the replicated mutation log
	// in the authoritative cloud store, making dynamic topologies work
	// across processes. Off, mutations stay process-local (static
	// topologies only, the pre-replication behavior).
	Replicate bool
	// ReplicationPoll overrides the log tailer's fallback poll interval
	// (zero: the replication default). Steady-state propagation rides
	// notify frames; the poll only bounds staleness under frame loss.
	ReplicationPoll time.Duration
	// ReplicaLagWait bounds how long a submit handler blocks waiting for
	// the local replica to reach the sender's log sequence before failing
	// typed with replication.ErrReplicaLagging. Zero means 5s.
	ReplicaLagWait time.Duration
	// Peers lists the mesh nodes of the deployment (this node included or
	// not — it is skipped either way); replicate-notify hints go to them.
	// Empty falls back to deriving peers from the cluster's server set via
	// the 1:1 node-per-server mapping — correct until a replicated
	// scale-out adds a server no process embodies, so deployments that
	// scale at runtime should set it.
	Peers []transport.NodeID
	// Ops, when set, is the process-wide observability registry: Start
	// registers the node's and every wired subsystem's metrics and
	// readiness checks on it, and the node emits structural events
	// (migrations, fence advances, backpressure, route repairs, trace
	// spans) into its ring. Nil disables the ops plane — the hot path pays
	// nothing either way.
	Ops *ops.Registry
}

// StorePartition names the replica set serving one keyspace partition of
// the store plane (primary first; failover promotes in list order).
type StorePartition struct {
	Replicas []transport.NodeID
}

// Node is one process's attachment to the AEON deployment.
type Node struct {
	cfg         Config
	id          transport.NodeID
	rt          *core.Runtime
	local       map[cluster.ServerID]bool
	servesStore bool

	// baseCtx parents every RemoteStore call so node shutdown cancels
	// in-flight store ops instead of letting failover retries stack dead
	// calls behind CallTimeout.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	ep    transport.Endpoint
	mgr   *emanager.Manager
	store *cloudstore.Partitioned
	plane *replication.Plane

	// streams caches one pipelined mux stream per peer for submit forwards
	// and replicate hints; entries are dropped (and the stream closed) on
	// transport failure so the next call redials.
	streamMu sync.Mutex
	streams  map[transport.NodeID]transport.Stream

	// forwarded counts events this node forwarded to another node;
	// executed counts peer-submitted events it executed locally; batches
	// counts node.submit.batch frames it handled (however many events each
	// carried); batchEvents counts the events those frames carried.
	forwarded, executed, batches, batchEvents, transfersIn, transfersOut atomic.Uint64

	// ops is the process observability registry (Config.Ops; nil = off).
	// submitLat (node.submit frames executed here), forwardLat (forwarded
	// sub-frames, round trip) and batchLat (node.submit.batch frames) are
	// striped per-frame latency histograms, recorded lock-free on the hot
	// path and merged on scrape.
	ops        *ops.Registry
	submitLat  metrics.StripedHistogram
	forwardLat metrics.StripedHistogram
	batchLat   metrics.StripedHistogram

	shutdownOnce sync.Once
	shutdownCh   chan struct{}

	closeOnce sync.Once
}

// Start attaches a node to the mesh: it wires the runtime's multi-process
// hooks, builds the store handle (a Partitioned client whose replicas are
// the LocalStore where this node serves one, RemoteStore over the mesh
// elsewhere), and creates the node's elasticity manager with
// mesh-based migration state transfer. The node serves peer requests as
// soon as Start returns.
func Start(mesh transport.Mesh, cfg Config) (*Node, error) {
	if cfg.Runtime == nil {
		return nil, fmt.Errorf("node %v: runtime is required", cfg.ID)
	}
	if cfg.MaxHops <= 0 {
		cfg.MaxHops = 4
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 10 * time.Second
	}
	if cfg.TransferTimeout <= 0 {
		cfg.TransferTimeout = 60 * time.Second
	}
	if cfg.ReplicaLagWait <= 0 {
		cfg.ReplicaLagWait = 5 * time.Second
	}
	servers := cfg.Servers
	if len(servers) == 0 {
		servers = []cluster.ServerID{cluster.ServerID(cfg.ID)}
	}
	n := &Node{
		cfg:        cfg,
		id:         cfg.ID,
		rt:         cfg.Runtime,
		local:      make(map[cluster.ServerID]bool, len(servers)),
		streams:    make(map[transport.NodeID]transport.Stream),
		shutdownCh: make(chan struct{}),
	}
	for _, s := range servers {
		n.local[s] = true
	}
	n.baseCtx, n.baseCancel = context.WithCancel(context.Background())

	// Wire the node fully before it can serve a single frame: a peer whose
	// ping raced ahead must never reach an unconfigured manager, store, or
	// runtime. Only the endpoint itself is pending when Attach runs, so the
	// handler gates on `ready` until it is recorded.
	//
	// The store plane: one Replicated client per partition (failing over
	// across its replica set), routed by a Partitioned client. A replica
	// naming this node serves from LocalStore without a mesh hop.
	layout := cfg.StoreReplicas
	if len(layout) == 0 {
		layout = []StorePartition{{Replicas: []transport.NodeID{cfg.ID}}}
	}
	parts := make([]*cloudstore.Replicated, 0, len(layout))
	for i, sp := range layout {
		if len(sp.Replicas) == 0 {
			return nil, fmt.Errorf("node %v: store partition %d has no replicas", cfg.ID, i)
		}
		replicas := make([]cloudstore.ReplicaAPI, 0, len(sp.Replicas))
		for _, rep := range sp.Replicas {
			if rep == cfg.ID {
				if cfg.LocalStore == nil {
					return nil, fmt.Errorf("node %v: named as store replica but has no LocalStore", cfg.ID)
				}
				replicas = append(replicas, cfg.LocalStore)
				n.servesStore = true
				continue
			}
			replicas = append(replicas, &RemoteStore{node: n, to: rep})
		}
		parts = append(parts, cloudstore.NewReplicated(i, replicas...))
	}
	n.store = cloudstore.NewPartitioned(parts...)
	if cfg.Replicate {
		// The replicated ownership-metadata control plane: structural
		// mutations captured on this node append to the shared log, and the
		// tailer applies every node's mutations to the local replica.
		n.plane = replication.New(n.rt, n.store, replication.Config{
			Origin: cfg.ID,
			Poll:   cfg.ReplicationPoll,
		})
		n.plane.SetNotify(n.notifyReplicated)
		n.rt.SetReplicator(n.plane)
	}
	mgrCfg := cfg.Manager
	mgrCfg.Transfer = n.transferGroup
	if n.plane != nil {
		// Recovery replays WAL and checkpoint records against the
		// replicated graph, so it must catch the replica up first; and
		// policy-driven scale-out/in must mutate membership fleet-wide, not
		// just this node's cluster replica.
		if mgrCfg.SyncReplica == nil {
			mgrCfg.SyncReplica = n.plane.CatchUp
		}
		if mgrCfg.Membership == nil {
			mgrCfg.Membership = n.plane
		}
	}
	n.mgr = emanager.New(n.rt, n.store, mgrCfg)
	n.rt.SetRemote(n.isLocal, n.forward)
	if cfg.Ops != nil {
		n.ops = cfg.Ops
		n.registerOps()
	}

	ready := make(chan struct{})
	ep, err := mesh.Attach(cfg.ID, func(ctx context.Context, from transport.NodeID, req transport.Message) (transport.Message, error) {
		<-ready
		return n.handle(ctx, from, req)
	})
	if err != nil {
		return nil, fmt.Errorf("node %v: attach: %w", cfg.ID, err)
	}
	n.ep = ep
	if n.plane != nil {
		// Catch up from the log before serving a single frame, so a node
		// that (re)joins a live deployment replays every mutation it missed
		// before peers can route to it. Best-effort: when the store node is
		// not reachable yet (peers booting in any order) the tailer keeps
		// retrying, and admission gating covers the window.
		_ = n.plane.Start()
	}
	close(ready)
	return n, nil
}

// ID returns the node's mesh address.
func (n *Node) ID() transport.NodeID { return n.id }

// Runtime returns the node's runtime.
func (n *Node) Runtime() *core.Runtime { return n.rt }

// Manager returns the node's elasticity manager (mesh-wired migrations).
func (n *Node) Manager() *emanager.Manager { return n.mgr }

// Store returns the node's view of the authoritative cloud store.
func (n *Node) Store() cloudstore.API { return n.store }

// Plane returns the node's replication plane (nil unless Config.Replicate).
func (n *Node) Plane() *replication.Plane { return n.plane }

// Forwarded returns how many submitted events this node forwarded to peers.
func (n *Node) Forwarded() uint64 { return n.forwarded.Load() }

// Executed returns how many peer-submitted events this node executed.
func (n *Node) Executed() uint64 { return n.executed.Load() }

// Batches returns how many node.submit.batch frames this node handled (tests
// and the bench use it to verify coalescing actually reduced frame count).
func (n *Node) Batches() uint64 { return n.batches.Load() }

// Done is closed when a peer requests shutdown (KindShutdown).
func (n *Node) Done() <-chan struct{} { return n.shutdownCh }

// Close detaches the node from the mesh and stops its manager. The runtime
// is left to the caller (it may outlive the mesh attachment in tests).
func (n *Node) Close() error {
	var err error
	n.closeOnce.Do(func() {
		n.baseCancel()
		n.mgr.Stop()
		if n.plane != nil {
			n.plane.Close()
		}
		n.streamMu.Lock()
		streams := n.streams
		n.streams = make(map[transport.NodeID]transport.Stream)
		n.streamMu.Unlock()
		for _, st := range streams {
			_ = st.Close()
		}
		err = n.ep.Close()
	})
	return err
}

// isLocal reports whether this process embodies srv.
func (n *Node) isLocal(srv cluster.ServerID) bool { return n.local[srv] }

// nodeFor maps a server to the mesh address of the node embodying it (the
// 1:1 deployment: same numeric ID).
func (n *Node) nodeFor(srv cluster.ServerID) transport.NodeID {
	return transport.NodeID(srv)
}

// Submit executes one event from this node: locally when this node embodies
// the server hosting the event's sequencing point, otherwise over the mesh.
// It is the multi-process equivalent of Runtime.Submit (and delegates to
// it — the runtime's forwarding hook does the mesh call).
func (n *Node) Submit(target ownership.ID, method string, args ...any) (any, error) {
	return n.rt.Submit(target, method, args...)
}

// Ping checks that a peer is attached and serving.
func (n *Node) Ping(peer transport.NodeID) error {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.CallTimeout)
	defer cancel()
	_, err := n.ep.Call(ctx, peer, transport.Message{Kind: KindPing})
	return err
}

// Shutdown asks a peer to shut down (its Done channel closes).
func (n *Node) Shutdown(peer transport.NodeID) error {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.CallTimeout)
	defer cancel()
	_, err := n.ep.Call(ctx, peer, transport.Message{Kind: KindShutdown})
	return err
}

// MigrateRemote commands the node embodying the group's current host to
// migrate root (and its co-located subtree) to server `to`. The migration —
// including the mesh state transfer — runs on the owning node; this call
// blocks until the group is live on the destination.
func (n *Node) MigrateRemote(owner transport.NodeID, root ownership.ID, to cluster.ServerID) error {
	req := schema.MigrateReq{Root: root, To: int64(to)}
	payload, err := req.MarshalWire(nil)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.TransferTimeout)
	defer cancel()
	raw, err := n.ep.Call(ctx, owner, transport.Message{Kind: KindMigrate, Payload: payload})
	if err != nil {
		return fmt.Errorf("migrate %v via %v: %w", root, owner, err)
	}
	return ackError(raw.Payload)
}

// notifyReplicated is the replication plane's propagation hint: after a
// durable append, tell every peer node the log advanced so their tailers
// pull immediately instead of waiting out a poll interval. Fire-and-forget
// per peer — a lost hint only costs poll latency, never correctness.
func (n *Node) notifyReplicated(seq uint64) {
	rec := schema.NotifyRec{Seq: seq}
	payload, err := rec.MarshalWire(nil)
	if err != nil {
		return
	}
	peers := make(map[transport.NodeID]bool)
	if len(n.cfg.Peers) > 0 {
		for _, p := range n.cfg.Peers {
			if p != n.id {
				peers[p] = true
			}
		}
	} else {
		// 1:1 node-per-server fallback; a replicated scale-out can add a
		// server no process embodies, so configured Peers take precedence.
		for _, s := range n.rt.Cluster().Servers() {
			if !n.isLocal(s.ID()) {
				peers[n.nodeFor(s.ID())] = true
			}
		}
	}
	for peer := range peers {
		go func(peer transport.NodeID) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			// Hints ride the cached pipelined stream, interleaved with
			// submit forwards. A lost hint costs poll latency, never
			// correctness.
			_, _ = n.call(ctx, peer, transport.Message{Kind: KindReplicate, Payload: payload})
		}(peer)
	}
}

// replicaSeq reports the local replica's applied log sequence (0 without
// replication), stamped into outgoing submits as the receiver's admission
// floor.
func (n *Node) replicaSeq() uint64 {
	if n.plane == nil {
		return 0
	}
	return n.plane.Applied()
}

// forward is the runtime's multi-process hook: the event's sequencing point
// is hosted on a server another node embodies, so ship the whole event
// there as a one-event batch frame. The response's authoritative host
// repairs this node's directory cache when the placement moved.
func (n *Node) forward(host cluster.ServerID, target ownership.ID, method string, args []any) (any, error) {
	n.forwarded.Add(1)
	req := schema.SubmitBatchReq{
		Hops:   1,
		MinSeq: n.replicaSeq(),
		Events: []schema.BatchEvent{{Target: target, Method: method, Args: args}},
	}
	resp, err := n.callSubmitBatch(n.nodeFor(host), &req)
	if err != nil {
		return nil, err
	}
	out := &resp.Outcomes[0]
	n.learnPlacement(target, cluster.ServerID(out.Host))
	if out.Err != "" {
		return nil, WireError(out.ErrKind, out.Err)
	}
	return out.Result, nil
}

// stream returns the cached pipelined stream to a peer, opening one on first
// use.
func (n *Node) stream(to transport.NodeID) (transport.Stream, error) {
	n.streamMu.Lock()
	st, ok := n.streams[to]
	n.streamMu.Unlock()
	if ok {
		return st, nil
	}
	st, err := n.ep.Stream(to)
	if err != nil {
		return nil, err
	}
	n.streamMu.Lock()
	if cur, ok := n.streams[to]; ok {
		// Another caller raced the dial; keep theirs.
		n.streamMu.Unlock()
		_ = st.Close()
		return cur, nil
	}
	n.streams[to] = st
	n.streamMu.Unlock()
	return st, nil
}

// call sends one frame to a peer over its cached pipelined stream. A
// transport failure (not a handler error) means the stream is broken or
// timed out: it is discarded so the next call redials. There is no retry —
// the outcome is ambiguous and events are not idempotent.
func (n *Node) call(ctx context.Context, to transport.NodeID, msg transport.Message) (transport.Message, error) {
	st, err := n.stream(to)
	if err != nil {
		return transport.Message{}, err
	}
	raw, err := st.Call(ctx, msg)
	var remote *transport.RemoteError
	if err != nil && !errors.As(err, &remote) {
		n.streamMu.Lock()
		if cur, ok := n.streams[to]; ok && cur == st {
			delete(n.streams, to)
		}
		n.streamMu.Unlock()
		_ = st.Close()
	}
	return raw, err
}

// learnPlacement repairs the local directory cache from an authoritative
// placement carried in a submit response. The response's Host is the
// placement of the event's *dominator* — the entry every routing decision
// (ours and our peers') is made on — so only that entry is repaired: the
// target itself may legitimately live on another server (a leaf migrated
// without its subtree), and overwriting its correct entry with the
// dominator's host would corrupt it.
func (n *Node) learnPlacement(target ownership.ID, host cluster.ServerID) {
	if host == 0 || n.cfg.NoPlacementLearning {
		return
	}
	dom, _, err := n.rt.Graph().Resolve(target)
	if err != nil {
		return
	}
	dir := n.rt.Directory()
	if cur, ok := dir.Locate(dom); ok && cur != host && !n.isLocal(cur) {
		// Cache repair only — hosted counters track authoritative
		// placements and are maintained by the migration protocol.
		_ = dir.Move(dom, host)
		n.emit("route.repair", map[string]any{
			"node": int64(n.id), "dom": uint64(dom), "from": int64(cur), "to": int64(host),
		})
	}
}

// handle is the node's mesh request handler.
func (n *Node) handle(ctx context.Context, from transport.NodeID, req transport.Message) (transport.Message, error) {
	switch req.Kind {
	case KindPing:
		return transport.Message{Kind: KindPing}, nil
	case KindSubmit:
		// A single-event frame runs through the batch executor as a batch
		// of one and answers with that one outcome.
		var sr schema.SubmitReq
		if err := sr.UnmarshalWire(req.Payload); err != nil {
			return transport.Message{}, err
		}
		br := schema.SubmitBatchReq{
			Hops:   sr.Hops,
			MinSeq: sr.MinSeq,
			Trace:  sr.Trace,
			Events: []schema.BatchEvent{{Target: sr.Target, Method: sr.Method, Args: sr.Args}},
		}
		start := time.Now()
		out, executed := n.handleSubmitBatch(&br, start)
		if executed > 0 {
			n.submitLat.Record(time.Since(start))
		}
		o := &out.Outcomes[0]
		resp := schema.SubmitResp{Result: o.Result, Host: o.Host, Err: o.Err, ErrKind: o.ErrKind}
		payload, err := resp.MarshalWire(nil)
		return transport.Message{Kind: KindSubmit, Payload: payload}, err
	case KindSubmitBatch:
		var br schema.SubmitBatchReq
		if err := br.UnmarshalWire(req.Payload); err != nil {
			return transport.Message{}, err
		}
		n.batches.Add(1)
		n.batchEvents.Add(uint64(len(br.Events)))
		start := time.Now()
		resp, _ := n.handleSubmitBatch(&br, start)
		n.batchLat.Record(time.Since(start))
		payload, err := resp.MarshalWire(nil)
		return transport.Message{Kind: KindSubmitBatch, Payload: payload}, err
	case KindStore:
		return serveStoreFrame(req.Payload, n.handleStore)
	case KindTransfer:
		var rec schema.TransferRec
		if err := rec.UnmarshalWire(req.Payload); err != nil {
			return transport.Message{}, err
		}
		return ackFrame(KindTransfer, n.handleTransfer(&rec))
	case KindTransferQuery:
		var tq schema.TransferQueryReq
		if err := tq.UnmarshalWire(req.Payload); err != nil {
			return transport.Message{}, err
		}
		host, ok := n.rt.Directory().Locate(tq.Probe)
		qr := schema.TransferQueryResp{Committed: ok && host == cluster.ServerID(tq.To)}
		payload, err := qr.MarshalWire(nil)
		return transport.Message{Kind: KindTransferQuery, Payload: payload}, err
	case KindMigrate:
		var mr schema.MigrateReq
		if err := mr.UnmarshalWire(req.Payload); err != nil {
			return transport.Message{}, err
		}
		return ackFrame(KindMigrate, n.handleMigrate(mr.Root, cluster.ServerID(mr.To)))
	case KindReplicate:
		var nr schema.NotifyRec
		if err := nr.UnmarshalWire(req.Payload); err != nil {
			return transport.Message{}, err
		}
		if n.plane != nil {
			n.plane.Poke(nr.Seq)
		}
		// The hint is fire-and-forget; an empty ack suffices.
		return transport.Message{Kind: KindReplicate}, nil
	case KindShutdown:
		n.shutdownOnce.Do(func() { close(n.shutdownCh) })
		return transport.Message{Kind: KindShutdown}, nil
	default:
		return transport.Message{}, fmt.Errorf("node %v: unknown frame kind %q", n.id, req.Kind)
	}
}

// callSubmitBatch sends a batch frame to a peer over the cached pipelined
// stream (pooled encode buffer, stream drop on transport failure, no retry)
// and decodes its outcomes, one per event.
func (n *Node) callSubmitBatch(to transport.NodeID, req *schema.SubmitBatchReq) (schema.SubmitBatchResp, error) {
	buf := schema.GetFrameBuf()
	payload, err := req.MarshalWire((*buf)[:0])
	if err != nil {
		schema.PutFrameBuf(buf)
		return schema.SubmitBatchResp{}, err
	}
	*buf = payload

	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.CallTimeout)
	defer cancel()
	raw, err := n.call(ctx, to, transport.Message{Kind: KindSubmitBatch, Payload: payload})
	schema.PutFrameBuf(buf) // endpoints do not retain payloads past Call
	if err != nil {
		return schema.SubmitBatchResp{}, fmt.Errorf("submit to %v: %w", to, err)
	}
	var resp schema.SubmitBatchResp
	if err := resp.UnmarshalWire(raw.Payload); err != nil {
		return schema.SubmitBatchResp{}, err
	}
	if len(resp.Outcomes) != len(req.Events) {
		return schema.SubmitBatchResp{}, fmt.Errorf("submit to %v: %d outcomes for %d events", to, len(resp.Outcomes), len(req.Events))
	}
	return resp, nil
}

// handleSubmitBatch is the node's submit executor: every submit frame, of
// one event or many, executes or forwards here in one admission. Placement
// is resolved against the local directory snapshot, and the frame-level
// fields are charged once — one replication-lag gate, one hop budget — while
// every outcome is per-event: a typed failure (unknown context,
// backpressure, hop exhaustion) fills only its own slot and its batchmates
// proceed. Events whose dominators live on peers are regrouped into per-host
// sub-batches and forwarded with the hop budget decremented, so a stale
// sender pays exactly the forwarding hop of the paper's staleness window,
// once per host rather than per event; each forwarded outcome carries the
// authoritative Host, which repairs this node's directory cache. start is
// when the frame arrived; it returns the response and how many events
// executed here.
func (n *Node) handleSubmitBatch(req *schema.SubmitBatchReq, start time.Time) (schema.SubmitBatchResp, int) {
	out := make([]schema.BatchOutcome, len(req.Events))
	resp := schema.SubmitBatchResp{Outcomes: out}
	if len(req.Events) == 0 {
		return resp, 0
	}
	// Lag-aware admission: the sender's replica had applied MinSeq of the
	// mutation log when it routed here. Block until ours has too (a target
	// may only exist past that sequence), then fail typed if the replica
	// stays behind — never admit against a torn view.
	if n.plane != nil && req.MinSeq > n.plane.Applied() {
		if err := n.plane.WaitFor(req.MinSeq, n.cfg.ReplicaLagWait); err != nil {
			n.emit("backpressure.lag", map[string]any{
				"node": int64(n.id), "min_seq": req.MinSeq, "applied": n.plane.Applied(), "err": err.Error(),
			})
			msg, kind := errFields(fmt.Errorf("submit at seq %d: %w", req.MinSeq, err))
			for i := range out {
				out[i].Err, out[i].ErrKind = msg, kind
			}
			return resp, 0
		}
	}
	// At most one log catch-up per frame: the sender may know a target from
	// a mutation whose sequence it did not carry (e.g. a client-side retry),
	// so the first unknown target pulls the log once and batchmates resolve
	// against the refreshed snapshot. Gated on not-found so other resolve
	// failures don't buy a store round trip.
	caughtUp := false
	executed, first := 0, -1
	var fwd map[cluster.ServerID][]int
	dir := n.rt.Directory()
	for i := range req.Events {
		ev := &req.Events[i]
		dom, _, err := n.rt.Graph().Resolve(ev.Target)
		if err != nil && errors.Is(err, ownership.ErrNotFound) && !caughtUp && n.plane != nil {
			caughtUp = true
			if n.plane.CatchUp() == nil {
				dom, _, err = n.rt.Graph().Resolve(ev.Target)
			}
		}
		if err != nil {
			// Keep the typed sentinel for the wire kind, but carry the real
			// cause (store outage mid-catch-up, resolve ambiguity) in the
			// message — "unknown context" alone hides what actually failed.
			msg, kind := errFields(fmt.Errorf("dominator of %v: %v: %w", ev.Target, err, core.ErrUnknownContext))
			out[i].Err, out[i].ErrKind = msg, kind
			continue
		}
		host, ok := dir.Locate(dom)
		if !ok {
			// The event can name a sequencing point this node has resolved
			// but never materialized: a virtual join minted by the Resolve
			// above is placed only when the runtime materializes it.
			// Materialize it here — the runtime places it deterministically
			// alongside its first child — then re-read the directory.
			if _, cerr := n.rt.Context(dom); cerr == nil {
				host, ok = dir.Locate(dom)
			}
		}
		if !ok {
			msg, kind := errFields(fmt.Errorf("%v: %w", dom, core.ErrUnknownContext))
			out[i].Err, out[i].ErrKind = msg, kind
			continue
		}
		if !n.isLocal(host) {
			// Forward on miss: our cached mapping says another node hosts
			// the sequencing point.
			if req.Hops >= uint32(n.cfg.MaxHops) {
				msg, kind := errFields(fmt.Errorf("%v after %d hops: %w", ev.Target, req.Hops, ErrTooManyHops))
				out[i].Err, out[i].ErrKind, out[i].Host = msg, kind, int64(host)
				continue
			}
			if fwd == nil {
				fwd = make(map[cluster.ServerID][]int)
			}
			fwd[host] = append(fwd[host], i)
			continue
		}
		n.executed.Add(1)
		res, err := n.rt.Submit(ev.Target, ev.Method, ev.Args...)
		if executed == 0 {
			first = i
		}
		executed++
		out[i].Result = res
		out[i].Err, out[i].ErrKind = errFields(err)
		// Report the authoritative placement after execution (the runtime
		// may itself have forwarded if a migration raced admission).
		if cur, ok := dir.Locate(dom); ok {
			out[i].Host = int64(cur)
		}
	}
	if executed > 0 {
		// One span covers the frame's locally executed slice — per-event
		// spans would multiply the feed by the batch size for no extra
		// structure.
		n.span(req.Trace, "execute", &req.Events[first], executed, int(req.Hops), start)
	}
	if len(fwd) == 0 {
		return resp, executed
	}
	// Forward each host's sub-batch: inline when there is one host,
	// concurrently otherwise. Outcome slots are disjoint per host, so the
	// goroutines never write the same index.
	minSeq := max(req.MinSeq, n.replicaSeq())
	if len(fwd) == 1 {
		for host, idxs := range fwd {
			sub := subBatch(req, idxs, minSeq)
			n.forwardBatch(&sub, out, host, idxs)
		}
		return resp, executed
	}
	var wg sync.WaitGroup
	for host, idxs := range fwd {
		sub := subBatch(req, idxs, minSeq)
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.forwardBatch(&sub, out, host, idxs)
		}()
	}
	wg.Wait()
	return resp, executed
}

// subBatch builds the frame that forwards the events of req at idxs one hop
// further, carrying the sender's replica sequence floor minSeq.
func subBatch(req *schema.SubmitBatchReq, idxs []int, minSeq uint64) schema.SubmitBatchReq {
	sub := schema.SubmitBatchReq{
		Hops:   req.Hops + 1,
		MinSeq: minSeq,
		Trace:  req.Trace,
		Events: make([]schema.BatchEvent, len(idxs)),
	}
	for j, i := range idxs {
		sub.Events[j] = req.Events[i]
	}
	return sub
}

// forwardBatch sends sub, the events at idxs of a frame this node received,
// to host as one batch frame and fills their outcome slots, learning each
// event's authoritative placement from the response.
func (n *Node) forwardBatch(sub *schema.SubmitBatchReq, out []schema.BatchOutcome, host cluster.ServerID, idxs []int) {
	n.forwarded.Add(uint64(len(idxs)))
	start := time.Now()
	fres, err := n.callSubmitBatch(n.nodeFor(host), sub)
	n.forwardLat.Record(time.Since(start))
	// The span carries the hop count this node saw the frame at.
	n.span(sub.Trace, "forward", &sub.Events[0], len(idxs), int(sub.Hops)-1, start)
	if err != nil {
		msg, kind := errFields(err)
		for _, i := range idxs {
			out[i].Err, out[i].ErrKind, out[i].Host = msg, kind, int64(host)
		}
		return
	}
	for j, i := range idxs {
		out[i] = fres.Outcomes[j]
		n.learnPlacement(sub.Events[j].Target, cluster.ServerID(out[i].Host))
	}
}

// handleMigrate serves a commanded migration: only the node embodying the
// group's current host may run it (the migration engine is source-driven).
func (n *Node) handleMigrate(root ownership.ID, to cluster.ServerID) error {
	host, ok := n.rt.Directory().Locate(root)
	if !ok {
		return fmt.Errorf("%v: %w", root, core.ErrUnknownContext)
	}
	if !n.isLocal(host) {
		return fmt.Errorf("migrate %v hosted on %v: %w", root, host, ErrNotLocalServer)
	}
	n.emit("migration.start", map[string]any{
		"node": int64(n.id), "root": uint64(root), "from": int64(host), "to": int64(to),
	})
	start := time.Now()
	err := n.mgr.MigrateGroup(root, to)
	if err != nil {
		n.emit("migration.abort", map[string]any{
			"node": int64(n.id), "root": uint64(root), "to": int64(to), "err": err.Error(),
		})
		return err
	}
	n.emit("migration.commit", map[string]any{
		"node": int64(n.id), "root": uint64(root), "from": int64(host), "to": int64(to),
		"us": time.Since(start).Microseconds(),
	})
	return nil
}

// transferGroup is the migration engine's Transfer hook: serialize every
// member's state and ship it to the destination node, which installs it and
// remaps its directory replica. Destinations embodied by this node need no
// wire round trip (the registry is shared process-wide).
func (n *Node) transferGroup(members []ownership.ID, from, to cluster.ServerID, totalBytes int) error {
	if n.isLocal(to) {
		return nil
	}
	states := make(map[uint64][]byte, len(members))
	for _, id := range members {
		c, err := n.rt.Context(id)
		if err != nil {
			return fmt.Errorf("transfer %v: %w", id, err)
		}
		st := c.State()
		if st == nil {
			continue
		}
		b, err := schema.EncodeWire(st)
		if err != nil {
			return fmt.Errorf("transfer %v: %w", id, err)
		}
		states[uint64(id)] = b
	}
	rec := schema.TransferRec{
		Members:    members,
		From:       int64(from),
		To:         int64(to),
		TotalBytes: int64(totalBytes),
		States:     states,
		MinSeq:     n.replicaSeq(),
	}
	payload, err := rec.MarshalWire(nil)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.TransferTimeout)
	defer cancel()
	n.transfersOut.Add(1)
	raw, err := n.ep.Call(ctx, n.nodeFor(to), transport.Message{Kind: KindTransfer, Payload: payload})
	if err != nil {
		// Ambiguous outcome: the request — or just its ack — may have been
		// lost after the destination installed the state and remapped its
		// directory (it commits inside the handler). Probe the destination:
		// if it committed, the transfer succeeded and the source must
		// proceed with its own remap, or two processes would both consider
		// themselves authoritative for the group. If the probe says "not
		// committed" (or the peer is unreachable), abort with the WAL
		// intact; Recover re-runs the protocol and converges.
		if len(members) > 0 && n.transferCommitted(members[0], to) {
			return nil
		}
		return fmt.Errorf("transfer to %v: %w", to, err)
	}
	return ackError(raw.Payload)
}

// transferCommitted asks the destination whether it committed a transfer
// whose acknowledgment was lost. Any probe failure reports false — the
// caller then aborts and leaves convergence to WAL recovery.
func (n *Node) transferCommitted(probe ownership.ID, to cluster.ServerID) bool {
	req := schema.TransferQueryReq{Probe: probe, To: int64(to)}
	payload, err := req.MarshalWire(nil)
	if err != nil {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.CallTimeout)
	defer cancel()
	raw, err := n.ep.Call(ctx, n.nodeFor(to), transport.Message{Kind: KindTransferQuery, Payload: payload})
	if err != nil {
		return false
	}
	var resp schema.TransferQueryResp
	return resp.UnmarshalWire(raw.Payload) == nil && resp.Committed
}

// handleTransfer installs a migrated group on this node: decode and set
// each member's state, then remap the local directory replica in one
// MoveBatch epoch (RehostBatch) and mirror the NIC transfer accounting the
// source engine charges on its side.
func (n *Node) handleTransfer(req *schema.TransferRec) error {
	to, from := cluster.ServerID(req.To), cluster.ServerID(req.From)
	if !n.isLocal(to) {
		return fmt.Errorf("transfer for %v: %w", to, ErrNotLocalServer)
	}
	// Group members created at runtime exist here only once the replica has
	// applied their creating records: block on the source's sequence before
	// installing, exactly like submit admission.
	if n.plane != nil && req.MinSeq > n.plane.Applied() {
		if err := n.plane.WaitFor(req.MinSeq, n.cfg.ReplicaLagWait); err != nil {
			return fmt.Errorf("transfer at seq %d: %w", req.MinSeq, err)
		}
	}
	for _, id := range req.Members {
		c, err := n.rt.Context(id)
		if err != nil {
			return fmt.Errorf("install %v: %w", id, err)
		}
		b, ok := req.States[uint64(id)]
		if !ok {
			continue
		}
		v, err := schema.DecodeWire(b)
		if err != nil {
			return fmt.Errorf("install %v: %w", id, err)
		}
		c.SetState(v)
	}
	if err := n.rt.RehostBatch(req.Members, to); err != nil {
		return err
	}
	n.transfersIn.Add(1)
	n.emit("transfer.install", map[string]any{
		"node": int64(n.id), "members": len(req.Members),
		"from": req.From, "to": req.To, "bytes": req.TotalBytes,
	})
	cl := n.rt.Cluster()
	if s, ok := cl.Server(to); ok {
		s.AddTransferBytes(req.TotalBytes)
	}
	if s, ok := cl.Server(from); ok {
		s.AddTransferBytes(req.TotalBytes)
	}
	return nil
}

// handleStore serves one cloud-store operation from the node's LocalStore
// replica. Nodes that serve no replica refuse typed, so a misconfigured
// peer fails fast.
func (n *Node) handleStore(req *schema.StoreReq) schema.StoreResp {
	if !n.servesStore {
		msg, kind := errFields(fmt.Errorf("node %v: %w", n.id, ErrNotStoreNode))
		return schema.StoreResp{Err: msg, ErrKind: kind}
	}
	return execStoreOp(n.cfg.LocalStore, n.id, req)
}
