package cloudstore

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// ReplicaAPI is the only surface a store replica exposes: the fenced
// per-operation surface and the replication/fencing operations Replicated
// needs. Store and DiskStore implement it; node.RemoteStore implements it
// over the mesh so replicas can live in dedicated store-server processes.
// Clients never call it directly — they go through Replicated.
type ReplicaAPI interface {
	// Fenced ops: every operation carries the partition and the fence
	// epoch of the caller's view. A replica that has accepted a newer
	// epoch refuses with ErrFenced, so writes *and reads* addressed to a
	// deposed primary fail instead of silently executing against (or
	// serving) a stale view. Fenced writes raise the
	// replica's accepted epoch — durably, on journaling backends — when
	// they carry a newer one; fenced reads never mutate the fence.
	GetF(part int, epoch uint64, key string) ([]byte, uint64, error)
	ListF(part int, epoch uint64, prefix string) ([]string, error)
	PutF(part int, epoch uint64, key string, value []byte) (uint64, error)
	PutBatchF(part int, epoch uint64, entries map[string][]byte) (uint64, error)
	CreateBatchF(part int, epoch uint64, entries map[string][]byte) (uint64, error)
	CASF(part int, epoch uint64, key string, expect uint64, value []byte) (uint64, error)
	// DeleteF and DeleteBatchF return the tombstone version(s) assigned to
	// the removal(s) so deletes can be forwarded to followers with ordering
	// information; every key of a batch (present or missing) consumes one
	// version in sorted order.
	DeleteF(part int, epoch uint64, key string) (uint64, error)
	DeleteBatchF(part int, epoch uint64, keys []string) (uint64, error)
	// Apply installs a replicated commit under the given fence epoch.
	Apply(part int, epoch uint64, c Commit) error
	// Promote raises the partition's fence epoch. It is a fence advance,
	// not a role claim: primaryship is derived from the epoch, and failover
	// spreads the same epoch across the set until a majority holds it.
	Promote(part int, epoch uint64) (uint64, error)
	// FenceEpoch reports the highest fence epoch accepted for the partition.
	FenceEpoch(part int) (uint64, error)
}

// ReplicaKeys lists one replica's keys under prefix at the fence epoch the
// replica itself holds for partition part: an inspection read of that one
// replica, bypassing any client's view, that passes the fence gate.
func ReplicaKeys(r ReplicaAPI, part int, prefix string) ([]string, error) {
	e, err := r.FenceEpoch(part)
	if err != nil {
		return nil, err
	}
	return r.ListF(part, e, prefix)
}

// KV is one replicated set: the value and the version the primary assigned.
type KV struct {
	Key string
	Val []byte
	Ver uint64
}

// KD is one replicated delete: the tombstone version the primary assigned.
type KD struct {
	Key string
	Ver uint64
}

// Commit is the unit of replication a primary write forwards to followers.
// Versions are primary-assigned, so followers converge to primary order by
// applying each key's highest version (see Store.Apply).
type Commit struct {
	Sets []KV
	Dels []KD
}

// maxFailovers bounds how many view changes one logical operation will chase
// before giving up and surfacing the underlying error. Anything past two
// epoch bumps means the partition has no majority of live replicas.
const maxFailovers = 4

// Replicated is a replicated-partition client: it executes operations
// against the partition's current primary and acknowledges a write only
// once it is durable on a majority of the replica set.
//
// View convention: fence epochs start at 1 and the primary for epoch e is
// replicas[(e-1) % len(replicas)]. Every client derives the same primary
// from the same epoch, so the fence epoch alone names the view. Every
// operation — reads included — carries its epoch to the replica it
// addresses, and a replica that has accepted a newer fence refuses it with
// ErrFenced; the client then re-derives its view from the replicas' fence
// epochs and retries at the primary that epoch names.
//
// Quorum discipline: a write is acknowledged only when the primary executed
// it AND at least ⌊n/2⌋ followers accepted the fenced Apply — a majority of
// the set, the primary included. Failover (Promote) likewise only takes
// effect once a majority of replicas hold the new fence. Any two majorities
// intersect, so a client still acting for a deposed primary meets the newer
// fence on at least one replica of its write path and its write is never
// acknowledged — that intersection, not the fence check of any single
// follower, is what prevents split-brain. The flip side is honest
// unavailability: a client partitioned onto a minority of the set (e.g. one
// that can reach only a stale primary) gets ErrUnavailable instead of a
// degraded ack. A 2-replica set therefore cannot fail over — deployments
// that need to survive a replica loss run 3 replicas per partition.
//
// A one-replica set (a single store) has no other replica to fence: it never
// promotes or bumps the epoch, and a replica error reaches the caller after
// that one store call, exactly as if it had called the replica directly.
//
// Known limits (resync/anti-entropy is future work): a replica that missed
// commits while unreachable is not re-synced when it returns — the fence
// only keeps it from serving a deposed view — and a promoted primary serves
// the commits *it* saw, which for writes acknowledged by the other majority
// member may lag until those keys are written again.
type Replicated struct {
	part     int
	replicas []ReplicaAPI

	mu      sync.Mutex
	epoch   uint64
	primary int

	// fenceAdvances counts adopted epoch bumps (failovers observed by this
	// client); quorumFailures counts writes and fence spreads that could
	// not reach a majority. onFence, when set, fires on every adopted
	// advance — the ops plane turns it into a store.fence_advance event.
	fenceAdvances  atomic.Uint64
	quorumFailures atomic.Uint64
	onFence        atomic.Pointer[func(part int, epoch uint64)]
}

var _ API = (*Replicated)(nil)

// NewReplicated returns a client for one partition served by the given
// replicas. All clients of a fresh partition start at epoch 1 with
// replicas[0] as primary; clients joining after a failover discover the
// real epoch on their first fenced operation.
func NewReplicated(part int, replicas ...ReplicaAPI) *Replicated {
	if len(replicas) == 0 {
		panic("cloudstore: NewReplicated needs at least one replica")
	}
	return &Replicated{part: part, replicas: replicas, epoch: 1, primary: 0}
}

// View reports the client's current fence epoch and primary index (tests and
// the bench harness use it to observe failovers).
func (r *Replicated) View() (epoch uint64, primary int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch, r.primary
}

// Part reports the partition index this client serves.
func (r *Replicated) Part() int { return r.part }

// FenceAdvances counts the epoch bumps this client has adopted (its
// observed failovers).
func (r *Replicated) FenceAdvances() uint64 { return r.fenceAdvances.Load() }

// QuorumFailures counts writes and fence spreads refused because a majority
// of the replica set was unreachable.
func (r *Replicated) QuorumFailures() uint64 { return r.quorumFailures.Load() }

// SetOnFenceAdvance installs a callback fired (outside the view lock) each
// time this client adopts a newer fence epoch.
func (r *Replicated) SetOnFenceAdvance(fn func(part int, epoch uint64)) {
	r.onFence.Store(&fn)
}

// quorum is the majority size of the replica set; followerQuorum is how many
// follower acks a write needs on top of the primary's own copy to reach it.
func (r *Replicated) quorum() int         { return len(r.replicas)/2 + 1 }
func (r *Replicated) followerQuorum() int { return len(r.replicas) / 2 }

func (r *Replicated) adopt(epoch uint64) {
	r.mu.Lock()
	advanced := epoch > r.epoch
	if advanced {
		r.epoch = epoch
		r.primary = int((epoch - 1) % uint64(len(r.replicas)))
	}
	r.mu.Unlock()
	if advanced {
		r.fenceAdvances.Add(1)
		if fn := r.onFence.Load(); fn != nil {
			(*fn)(r.part, epoch)
		}
	}
}

// isSemantic reports whether err is a store-semantic outcome (key state) as
// opposed to a replica-health signal; semantic errors surface to the caller
// unchanged instead of triggering failover.
func isSemantic(err error) bool {
	return errors.Is(err, ErrNotFound) || errors.Is(err, ErrVersionMismatch)
}

// refresh re-derives the view from the replicas' accepted fence epochs after
// an ErrFenced: whoever fenced us recorded a higher epoch on at least one
// reachable replica.
func (r *Replicated) refresh() {
	max := uint64(0)
	for _, rep := range r.replicas {
		if e, err := rep.FenceEpoch(r.part); err == nil && e > max {
			max = e
		}
	}
	r.adopt(max)
}

// failoverFrom fences a new epoch past fromEpoch onto the replica set: the
// epoch's designated primary must accept the Promote, and the fence must
// then reach a majority of the set before the new view serves. Requiring a
// majority of fence-holders is what makes the fence meaningful — a write
// acked under an older epoch needed a majority too, so the two sets
// intersect and a stale writer is refused by at least one replica on its
// path. Promote refusing with ErrFenced means someone else already moved
// the view forward — adopt theirs.
func (r *Replicated) failoverFrom(fromEpoch uint64) error {
	n := uint64(len(r.replicas))
	for i := uint64(1); i <= n; i++ {
		e := fromEpoch + i
		idx := int((e - 1) % n)
		got, err := r.replicas[idx].Promote(r.part, e)
		switch {
		case errors.Is(err, ErrFenced):
			r.adopt(got)
			return nil
		case err != nil:
			continue // unreachable — try the replica the next epoch maps to
		}
		// Spread the fence to the rest of the set; the promotion is
		// effective once a majority (the new primary included) holds it.
		holders := 1
		for j, rep := range r.replicas {
			if j == idx {
				continue
			}
			g, perr := rep.Promote(r.part, e)
			switch {
			case perr == nil:
				holders++
			case errors.Is(perr, ErrFenced):
				r.adopt(g)
				return nil
			}
		}
		if holders < r.quorum() {
			r.quorumFailures.Add(1)
			return fmt.Errorf("partition %d: fence %d held by %d/%d replicas, need %d: %w",
				r.part, e, holders, len(r.replicas), r.quorum(), ErrUnavailable)
		}
		r.adopt(e)
		return nil
	}
	return ErrUnavailable
}

// do runs op against the current primary, chasing fence changes and failing
// over past dead primaries, up to maxFailovers view changes.
func (r *Replicated) do(op func(p ReplicaAPI, primaryIdx int, epoch uint64) error) error {
	var lastErr error
	for attempt := 0; attempt <= maxFailovers; attempt++ {
		r.mu.Lock()
		pi, e := r.primary, r.epoch
		r.mu.Unlock()
		err := op(r.replicas[pi], pi, e)
		switch {
		case err == nil:
			return nil
		case isSemantic(err):
			return err
		case errors.Is(err, ErrFenced):
			// Our view is stale: someone fenced a newer epoch. Re-derive it
			// and retry at the primary that epoch names.
			r.refresh()
			lastErr = err
		default:
			// Primary unreachable, or the write could not reach a majority
			// (ErrUnavailable or a transport error): fence the next epoch
			// onto the surviving replicas. If no majority is reachable the
			// failover refuses too and the error surfaces — never a
			// degraded ack. A lone replica has no survivor to fail over to.
			if len(r.replicas) == 1 {
				return err
			}
			if ferr := r.failoverFrom(e); ferr != nil {
				return err
			}
			lastErr = err
		}
	}
	return lastErr
}

// commit forwards a write to every non-primary replica under the epoch it
// was performed at and gates the ack on a majority. An ErrFenced from any
// follower aborts the ack outright — the write happened on a deposed
// primary. Short of ⌊n/2⌋ follower acks the write is not acknowledged
// either: a client that can reach the primary but not enough of the rest of
// the set (a partial partition — exactly the window where another client
// may be failing over) surfaces ErrUnavailable instead of acking a write
// the next view may never see.
func (r *Replicated) commit(epoch uint64, primaryIdx int, c Commit) error {
	acks := 0
	var lastErr error
	for i, rep := range r.replicas {
		if i == primaryIdx {
			continue
		}
		switch err := rep.Apply(r.part, epoch, c); {
		case err == nil:
			acks++
		case errors.Is(err, ErrFenced):
			return err
		default:
			lastErr = err
		}
	}
	if acks < r.followerQuorum() {
		r.quorumFailures.Add(1)
		return fmt.Errorf("partition %d: write at epoch %d reached %d/%d followers, need %d for a majority (last: %v): %w",
			r.part, epoch, acks, len(r.replicas)-1, r.followerQuorum(), lastErr, ErrUnavailable)
	}
	return nil
}

// Get reads from the current primary under the view's fence: a deposed
// primary that learned the newer epoch refuses the read instead of serving
// a stale view. (A deposed primary that never learned it — unreachable from
// every newer-view client — can still serve reads of its old view; closing
// that needs read quorums or leases and is documented as a limit above.)
func (r *Replicated) Get(key string) (value []byte, version uint64, err error) {
	gerr := r.do(func(p ReplicaAPI, _ int, epoch uint64) error {
		value, version, err = p.GetF(r.part, epoch, key)
		return err
	})
	if gerr != nil {
		return nil, 0, gerr
	}
	return value, version, nil
}

// List reads from the current primary under the view's fence.
func (r *Replicated) List(prefix string) (keys []string, err error) {
	lerr := r.do(func(p ReplicaAPI, _ int, epoch uint64) error {
		keys, err = p.ListF(r.part, epoch, prefix)
		return err
	})
	if lerr != nil {
		return nil, lerr
	}
	return keys, nil
}

// Put writes through the primary and replicates to a majority before
// acknowledging.
func (r *Replicated) Put(key string, value []byte) (uint64, error) {
	var ver uint64
	err := r.do(func(p ReplicaAPI, pi int, epoch uint64) error {
		v, err := p.PutF(r.part, epoch, key, value)
		if err != nil {
			return err
		}
		ver = v
		return r.commit(epoch, pi, Commit{Sets: []KV{{Key: key, Val: value, Ver: v}}})
	})
	if err != nil {
		return 0, err
	}
	return ver, nil
}

// batchVersion reconstructs the version of the i-th key (in sorted order) of
// an n-key batch write or delete: the store assigns contiguous versions in
// sorted key order under its lock, so the returned high-water version last
// determines every key's version.
func batchVersion(last uint64, n, i int) uint64 {
	return last - uint64(n) + 1 + uint64(i)
}

// batchSets rebuilds the replicated sets of a batch write.
func batchSets(entries map[string][]byte, last uint64) []KV {
	keys := sortedKeys(entries)
	sets := make([]KV, len(keys))
	for i, k := range keys {
		sets[i] = KV{Key: k, Val: entries[k], Ver: batchVersion(last, len(keys), i)}
	}
	return sets
}

// batchDels rebuilds the replicated tombstones of a batch delete.
func batchDels(keys []string, last uint64) []KD {
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	dels := make([]KD, len(sorted))
	for i, k := range sorted {
		dels[i] = KD{Key: k, Ver: batchVersion(last, len(sorted), i)}
	}
	return dels
}

// PutBatch writes through the primary and replicates to a majority before
// acknowledging.
func (r *Replicated) PutBatch(entries map[string][]byte) (uint64, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	var last uint64
	err := r.do(func(p ReplicaAPI, pi int, epoch uint64) error {
		v, err := p.PutBatchF(r.part, epoch, entries)
		if err != nil {
			return err
		}
		last = v
		return r.commit(epoch, pi, Commit{Sets: batchSets(entries, v)})
	})
	if err != nil {
		return 0, err
	}
	return last, nil
}

// CreateBatch creates through the primary and replicates to a majority
// before acknowledging; an existing key surfaces as ErrVersionMismatch
// unchanged.
func (r *Replicated) CreateBatch(entries map[string][]byte) (uint64, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	var last uint64
	err := r.do(func(p ReplicaAPI, pi int, epoch uint64) error {
		v, err := p.CreateBatchF(r.part, epoch, entries)
		if err != nil {
			return err
		}
		last = v
		return r.commit(epoch, pi, Commit{Sets: batchSets(entries, v)})
	})
	if err != nil {
		return 0, err
	}
	return last, nil
}

// CAS writes through the primary and replicates to a majority before
// acknowledging. The CAS itself stays strictly per-key on the primary, so
// CAS-sequenced protocols (the replication log's commit point) keep their
// semantics.
func (r *Replicated) CAS(key string, expect uint64, value []byte) (uint64, error) {
	var ver uint64
	err := r.do(func(p ReplicaAPI, pi int, epoch uint64) error {
		v, err := p.CASF(r.part, epoch, key, expect, value)
		if err != nil {
			return err
		}
		ver = v
		return r.commit(epoch, pi, Commit{Sets: []KV{{Key: key, Val: value, Ver: v}}})
	})
	if err != nil {
		return 0, err
	}
	return ver, nil
}

// Delete deletes through the primary and replicates the tombstone to a
// majority before acknowledging.
func (r *Replicated) Delete(key string) error {
	return r.do(func(p ReplicaAPI, pi int, epoch uint64) error {
		v, err := p.DeleteF(r.part, epoch, key)
		if err != nil {
			return err
		}
		return r.commit(epoch, pi, Commit{Dels: []KD{{Key: key, Ver: v}}})
	})
}

// DeleteBatch deletes through the primary and replicates the tombstones to a
// majority before acknowledging.
func (r *Replicated) DeleteBatch(keys []string) error {
	if len(keys) == 0 {
		return nil
	}
	return r.do(func(p ReplicaAPI, pi int, epoch uint64) error {
		last, err := p.DeleteBatchF(r.part, epoch, keys)
		if err != nil {
			return err
		}
		return r.commit(epoch, pi, Commit{Dels: batchDels(keys, last)})
	})
}
