package node

// The node wire protocol: frames carried in transport.Message payloads over
// Mesh.Call and mux streams. Every exchange is strictly request/response.
// Every frame with a body rides the hand-rolled hot codec
// (schema/hotframe.go, schema/storeframe.go); ping and shutdown frames carry
// empty payloads. Node-to-node submits and forwards are always batch frames;
// a single-event node.submit frame from a client is executed as a batch of
// one. Handler-level failures travel in-band as an error kind plus message,
// so typed errors (unknown context, hop-budget exhaustion, backpressure,
// store version mismatch) survive the wire instead of flattening into
// strings.

import (
	"errors"
	"fmt"

	"aeon/internal/cloudstore"
	"aeon/internal/core"
	"aeon/internal/replication"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// Frame kinds, routed by transport.Message.Kind.
const (
	// KindPing checks liveness and readiness of a peer.
	KindPing = "node.ping"
	// KindSubmit submits one event for execution (schema.SubmitReq/Resp).
	// Ingress clients send it; the node executes it as a one-event batch.
	KindSubmit = "node.submit"
	// KindSubmitBatch submits (or forwards) a batch of independent events in
	// one frame: one admission, one response, per-event outcomes
	// (schema.SubmitBatchReq/Resp). Nodes forward only in batch frames.
	KindSubmitBatch = "node.submit.batch"
	// KindStore performs one fenced cloud-store operation on a store
	// replica (a dedicated store server or a store-serving node).
	KindStore = "node.store"
	// KindTransfer installs a migrated group's state on the destination
	// node (migration protocol step IV over the mesh).
	KindTransfer = "node.transfer"
	// KindTransferQuery asks a destination whether it committed a transfer
	// (state installed and directory remapped). The source uses it to
	// resolve a lost transfer ack: without it, a dropped response would
	// leave the destination live while the source aborted — two
	// authoritative copies.
	KindTransferQuery = "node.transfer.query"
	// KindReplicate hints that the replication log advanced to a sequence:
	// the appender sends it to every peer after a durable append so
	// steady-state mutation propagation is one frame, not a poll interval.
	// Best-effort — a lost or duplicated hint is absorbed by the tailer's
	// poll and per-record idempotency.
	KindReplicate = "node.replicate.notify"
	// KindMigrate asks a node to migrate a group it hosts (control plane).
	KindMigrate = "node.migrate"
	// KindShutdown asks a node to shut down (control plane; the smoke
	// driver uses it to stop its peers).
	KindShutdown = "node.shutdown"
)

// Wire error kinds; mapped back to sentinel errors on the calling side.
const (
	errKindNone            = ""
	errKindApp             = "app"
	errKindUnknownContext  = "unknown-context"
	errKindUnknownMethod   = "unknown-method"
	errKindTooManyHops     = "too-many-hops"
	errKindBackpressure    = "backpressure"
	errKindClosed          = "closed"
	errKindNotLocal        = "not-local"
	errKindNotStoreNode    = "not-store-node"
	errKindNotFound        = "store-not-found"
	errKindVersionMismatch = "store-version-mismatch"
	errKindUnavailable     = "store-unavailable"
	errKindFenced          = "store-fenced"
	errKindReplicaLag      = "replica-lagging"
)

var (
	// ErrTooManyHops is returned when a submit frame exhausts its forwarding
	// budget — the placement directories of the involved nodes disagree
	// persistently (a bug or a torn deployment), so the event fails typed
	// instead of bouncing forever.
	ErrTooManyHops = errors.New("node: submit exceeded forwarding hop budget")
	// ErrNotStoreNode is returned when a store frame reaches a node that
	// does not serve the authoritative cloud store.
	ErrNotStoreNode = errors.New("node: not the store node")
	// ErrNotLocalServer is returned when a frame requires a server this
	// node does not embody (e.g. a transfer addressed to the wrong node).
	ErrNotLocalServer = errors.New("node: server not embodied by this node")
)

// Store operation selectors (schema.StoreReq.Op): cloudstore.ReplicaAPI
// over the mesh — the fenced per-op surface (every op carries its partition
// and fence epoch), fenced commit application, and fence
// promotion/inspection for partition failover.
const (
	storeGetF         = "getf"
	storeListF        = "listf"
	storePutF         = "putf"
	storePutBatchF    = "putbatchf"
	storeCreateBatchF = "createbatchf"
	storeCASF         = "casf"
	storeDeleteF      = "deletef"
	storeDelBatchF    = "deletebatchf"
	storeApply        = "apply"
	storePromote      = "promote"
	storeEpoch        = "epoch"
)

// ackFrame answers a migrate or transfer frame with its outcome.
func ackFrame(kind string, err error) (transport.Message, error) {
	var ack schema.AckResp
	ack.Err, ack.ErrKind = errFields(err)
	payload, merr := ack.MarshalWire(nil)
	return transport.Message{Kind: kind, Payload: payload}, merr
}

// ackError decodes an ackFrame payload back into its typed outcome.
func ackError(payload []byte) error {
	var ack schema.AckResp
	if err := ack.UnmarshalWire(payload); err != nil {
		return err
	}
	return WireError(ack.ErrKind, ack.Err)
}

// errKindOf classifies an error for the wire.
func errKindOf(err error) string {
	switch {
	case err == nil:
		return errKindNone
	case errors.Is(err, core.ErrUnknownContext):
		return errKindUnknownContext
	case errors.Is(err, core.ErrUnknownMethod):
		return errKindUnknownMethod
	case errors.Is(err, core.ErrBackpressure):
		return errKindBackpressure
	case errors.Is(err, core.ErrClosed):
		return errKindClosed
	case errors.Is(err, core.ErrNotLocal):
		return errKindNotLocal
	case errors.Is(err, ErrTooManyHops):
		return errKindTooManyHops
	case errors.Is(err, ErrNotStoreNode):
		return errKindNotStoreNode
	case errors.Is(err, ErrNotLocalServer):
		return errKindNotLocal
	case errors.Is(err, cloudstore.ErrNotFound):
		return errKindNotFound
	case errors.Is(err, cloudstore.ErrVersionMismatch):
		return errKindVersionMismatch
	case errors.Is(err, cloudstore.ErrUnavailable):
		return errKindUnavailable
	case errors.Is(err, cloudstore.ErrFenced):
		return errKindFenced
	case errors.Is(err, replication.ErrReplicaLagging):
		return errKindReplicaLag
	default:
		return errKindApp
	}
}

// WireError reconstructs a typed error from its wire (kind, message) form,
// so callers — peer nodes and ingress clients alike — can branch with
// errors.Is across the process boundary.
func WireError(kind, msg string) error {
	var sentinel error
	switch kind {
	case errKindNone:
		return nil
	case errKindUnknownContext:
		sentinel = core.ErrUnknownContext
	case errKindUnknownMethod:
		sentinel = core.ErrUnknownMethod
	case errKindBackpressure:
		sentinel = core.ErrBackpressure
	case errKindClosed:
		sentinel = core.ErrClosed
	case errKindNotLocal:
		sentinel = core.ErrNotLocal
	case errKindTooManyHops:
		sentinel = ErrTooManyHops
	case errKindNotStoreNode:
		sentinel = ErrNotStoreNode
	case errKindNotFound:
		sentinel = cloudstore.ErrNotFound
	case errKindVersionMismatch:
		sentinel = cloudstore.ErrVersionMismatch
	case errKindUnavailable:
		sentinel = cloudstore.ErrUnavailable
	case errKindFenced:
		sentinel = cloudstore.ErrFenced
	case errKindReplicaLag:
		sentinel = replication.ErrReplicaLagging
	default:
		return errors.New(msg)
	}
	return fmt.Errorf("%s: %w", msg, sentinel)
}

// errFields renders an error into (message, kind) wire fields.
func errFields(err error) (msg, kind string) {
	if err == nil {
		return "", errKindNone
	}
	return err.Error(), errKindOf(err)
}
