// Package cloudstore provides the configurable cloud storage system the
// paper's eManager depends on (§ 5): the context mapping and ownership
// network live here, migration steps are journaled here for eManager
// fail-over, and the snapshot API (§ 5.3) writes checkpoints here (the
// paper names ZooKeeper and Amazon S3 for these roles).
//
// The store is a versioned key-value store with compare-and-swap, per-
// operation simulated latency, and injectable unavailability so tests can
// exercise eManager crash/recovery paths. It has one client discipline:
// a replica (Store, DiskStore, or node.RemoteStore over the mesh) exposes
// only the fenced ReplicaAPI, and clients reach it through Replicated — one
// partition's replica set — or Partitioned, which routes keys over several.
// A single store is a one-partition, one-replica set.
package cloudstore

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

var (
	// ErrNotFound is returned when a key does not exist.
	ErrNotFound = errors.New("cloudstore: key not found")
	// ErrVersionMismatch is returned by CAS when the expected version is
	// stale.
	ErrVersionMismatch = errors.New("cloudstore: version mismatch")
	// ErrUnavailable is returned while the store is failed.
	ErrUnavailable = errors.New("cloudstore: unavailable")
	// ErrFenced is returned by replica operations carrying a fence epoch
	// older than the partition's accepted epoch: the caller is acting for a
	// deposed primary and must refresh its view of the replica set.
	ErrFenced = errors.New("cloudstore: fenced by a newer epoch")
)

// API is the operation surface cloud-store clients depend on: the eManager,
// the migration engine and the replication log journal through it. Replicated
// implements it over one partition's replicas and Partitioned over several,
// so the callers see one store no matter where or how many replicas run.
type API interface {
	// Get returns the value and version stored at key.
	Get(key string) ([]byte, uint64, error)
	// Put unconditionally stores value at key and returns the new version.
	Put(key string, value []byte) (uint64, error)
	// PutBatch stores every entry in one charged round trip.
	PutBatch(entries map[string][]byte) (uint64, error)
	// CreateBatch atomically creates every entry in one charged round trip,
	// failing with ErrVersionMismatch — and writing nothing — if any key
	// already exists. It is the batch analogue of CAS(key, 0, value).
	CreateBatch(entries map[string][]byte) (uint64, error)
	// CAS stores value only if the current version equals expect (0 means
	// "key must not exist").
	CAS(key string, expect uint64, value []byte) (uint64, error)
	// Delete removes key; deleting a missing key is an error.
	Delete(key string) error
	// DeleteBatch removes every key in one charged round trip; missing
	// keys are ignored (batch pruning is best-effort by design).
	DeleteBatch(keys []string) error
	// List returns the keys with the given prefix in sorted order.
	List(prefix string) ([]string, error)
}

type entry struct {
	value   []byte
	version uint64
}

// Store is an in-memory versioned KV store replica. It serves the fenced
// ReplicaAPI only; wrap it in a Replicated (NewReplicated(0, st) for a
// single store) to get the client API.
type Store struct {
	latency       time.Duration
	serialLatency time.Duration

	mu      sync.Mutex
	data    map[string]entry
	next    uint64
	fences  map[int]uint64    // partition → accepted fence epoch (replica role)
	applied map[string]uint64 // per-key high-water of replicated applies

	// persist, when set, is called under mu after every successful mutation
	// with the journal records describing it (the disk backend's hook).
	persist func([]jrec) error

	down   atomic.Bool
	reads  atomic.Uint64
	writes atomic.Uint64
}

var _ ReplicaAPI = (*Store)(nil)

// Option configures a Store.
type Option func(*Store)

// WithLatency charges the given latency on every operation, simulating a
// remote storage service.
func WithLatency(d time.Duration) Option {
	return func(s *Store) { s.latency = d }
}

// WithSerialLatency charges the given latency *while holding the store lock*,
// modeling a store node with a bounded serial service rate (one op at a time
// at 1/d ops per second) rather than an infinitely parallel service. The
// store bench uses it to make the single-store throughput ceiling — the thing
// partitioning removes — observable on a small host.
func WithSerialLatency(d time.Duration) Option {
	return func(s *Store) { s.serialLatency = d }
}

// New returns an empty store.
func New(opts ...Option) *Store {
	s := &Store{
		data:    make(map[string]entry),
		next:    1,
		fences:  make(map[int]uint64),
		applied: make(map[string]uint64),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

func (s *Store) charge() error {
	if s.down.Load() {
		return ErrUnavailable
	}
	if s.latency > 0 {
		time.Sleep(s.latency)
	}
	if s.down.Load() {
		return ErrUnavailable
	}
	return nil
}

// serviceLocked charges the serial service latency. Callers hold mu.
func (s *Store) serviceLocked() {
	if s.serialLatency > 0 {
		time.Sleep(s.serialLatency)
	}
}

// commitLocked journals the mutation records when a persist hook is attached.
// Callers hold mu, so journal order equals apply order.
func (s *Store) commitLocked(recs []jrec) error {
	if s.persist == nil {
		return nil
	}
	return s.persist(recs)
}

// fenceGateLocked is the partition fence check shared by every fenced
// operation: an epoch below the accepted fence is refused with ErrFenced.
// When advance is set (writes, Apply) a newer epoch raises the fence and the
// advance is returned as a journal record so it persists exactly like a
// promoted one — a restarted replica must refuse deposed epochs no matter
// how it learned the current one. Reads pass advance=false: they never
// mutate the fence. Callers hold mu.
func (s *Store) fenceGateLocked(part int, epoch uint64, advance bool) ([]jrec, error) {
	cur := s.fences[part]
	if epoch < cur {
		return nil, fmt.Errorf("partition %d: epoch %d < fence %d: %w", part, epoch, cur, ErrFenced)
	}
	if advance && epoch > cur {
		s.fences[part] = epoch
		return []jrec{{Op: jFence, Key: strconv.Itoa(part), Ver: epoch}}, nil
	}
	return nil, nil
}

// --- operation cores -------------------------------------------------------
// Each core assumes mu is held and the serial service latency has been
// charged; it mutates state and returns the journal records describing the
// mutation. The fenced replica ops below wrap them with the fence gate.

func (s *Store) getLocked(key string) ([]byte, uint64, error) {
	e, ok := s.data[key]
	if !ok {
		return nil, 0, fmt.Errorf("%q: %w", key, ErrNotFound)
	}
	out := make([]byte, len(e.value))
	copy(out, e.value)
	return out, e.version, nil
}

func (s *Store) listLocked(prefix string) []string {
	var out []string
	for k := range s.data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func (s *Store) setLocked(key string, value []byte) jrec {
	v := s.next
	s.next++
	stored := make([]byte, len(value))
	copy(stored, value)
	s.data[key] = entry{value: stored, version: v}
	return jrec{Op: jSet, Key: key, Val: stored, Ver: v}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// putBatchLocked assigns each key its own fresh version in sorted key order
// so batches are deterministic; returns the highest version assigned.
func (s *Store) putBatchLocked(entries map[string][]byte) (uint64, []jrec) {
	keys := sortedKeys(entries)
	recs := make([]jrec, 0, len(keys))
	var last uint64
	for _, k := range keys {
		rec := s.setLocked(k, entries[k])
		recs = append(recs, rec)
		last = rec.Ver
	}
	return last, recs
}

func (s *Store) createBatchLocked(entries map[string][]byte) (uint64, []jrec, error) {
	for _, k := range sortedKeys(entries) {
		if e, ok := s.data[k]; ok {
			return 0, nil, fmt.Errorf("%q exists at v%d: %w", k, e.version, ErrVersionMismatch)
		}
	}
	last, recs := s.putBatchLocked(entries)
	return last, recs, nil
}

func (s *Store) casLocked(key string, expect uint64, value []byte) (uint64, []jrec, error) {
	e, ok := s.data[key]
	switch {
	case expect == 0 && ok:
		return 0, nil, fmt.Errorf("%q exists at v%d: %w", key, e.version, ErrVersionMismatch)
	case expect != 0 && !ok:
		// Distinct from a live-version conflict: the key does not exist at
		// all. Still ErrVersionMismatch-wrapped so Retry treats both the
		// same way, but logs and failover diagnostics can tell a pruned key
		// from a racing writer.
		return 0, nil, fmt.Errorf("%q: missing, want v%d: %w", key, expect, ErrVersionMismatch)
	case expect != 0 && e.version != expect:
		return 0, nil, fmt.Errorf("%q: have v%d want v%d: %w", key, e.version, expect, ErrVersionMismatch)
	}
	rec := s.setLocked(key, value)
	return rec.Ver, []jrec{rec}, nil
}

// deleteLocked removes key, returning the tombstone version assigned to the
// removal. Deleting a missing key is an error so callers notice protocol
// bugs.
func (s *Store) deleteLocked(key string) (uint64, []jrec, error) {
	if _, ok := s.data[key]; !ok {
		return 0, nil, fmt.Errorf("%q: %w", key, ErrNotFound)
	}
	v := s.next
	s.next++
	delete(s.data, key)
	return v, []jrec{{Op: jDel, Key: key, Ver: v}}, nil
}

// deleteBatchLocked removes every key; missing keys are ignored (batch
// pruning is best-effort by design) but still consume one version each in
// sorted key order, so a replicating caller can reconstruct every key's
// tombstone version from the returned high-water mark.
func (s *Store) deleteBatchLocked(keys []string) (uint64, []jrec) {
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	recs := make([]jrec, 0, len(sorted))
	var last uint64
	for _, k := range sorted {
		v := s.next
		s.next++
		delete(s.data, k)
		recs = append(recs, jrec{Op: jDel, Key: k, Ver: v})
		last = v
	}
	return last, recs
}

// --- fenced replica ops ----------------------------------------------------
// The replicated client's surface: every op carries the partition and the
// fence epoch of the caller's view, and the fence gate runs under the same
// lock acquisition as the operation itself — there is no window where a
// newer fence can land between the check and the mutation.

// fencedRead runs one read core under the partition fence. Reads never
// advance the fence.
func (s *Store) fencedRead(part int, epoch uint64, core func() error) error {
	if err := s.charge(); err != nil {
		return err
	}
	s.reads.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.serviceLocked()
	if _, err := s.fenceGateLocked(part, epoch, false); err != nil {
		return err
	}
	return core()
}

// fencedWrite runs one mutation core under the partition fence — one
// charged write — and journals a fence advance together with the core's
// records in a single commit. It returns the version the core reports.
func (s *Store) fencedWrite(part int, epoch uint64, core func() (uint64, []jrec, error)) (uint64, error) {
	if err := s.charge(); err != nil {
		return 0, err
	}
	s.writes.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.serviceLocked()
	frecs, err := s.fenceGateLocked(part, epoch, true)
	if err != nil {
		return 0, err
	}
	v, recs, err := core()
	if err != nil {
		return 0, err
	}
	if err := s.commitLocked(append(frecs, recs...)); err != nil {
		return 0, err
	}
	return v, nil
}

// GetF returns the value and version stored at key, under the partition
// fence: a replica that has accepted a newer epoch refuses the read with
// ErrFenced instead of serving a view that may be missing writes
// acknowledged through a newer primary.
func (s *Store) GetF(part int, epoch uint64, key string) (val []byte, ver uint64, err error) {
	err = s.fencedRead(part, epoch, func() (err error) {
		val, ver, err = s.getLocked(key)
		return err
	})
	return val, ver, err
}

// ListF returns the keys with the given prefix in sorted order, under the
// partition fence.
func (s *Store) ListF(part int, epoch uint64, prefix string) (keys []string, err error) {
	err = s.fencedRead(part, epoch, func() error {
		keys = s.listLocked(prefix)
		return nil
	})
	return keys, err
}

// PutF unconditionally stores value at key under the partition fence and
// returns the new version.
func (s *Store) PutF(part int, epoch uint64, key string, value []byte) (uint64, error) {
	return s.fencedWrite(part, epoch, func() (uint64, []jrec, error) {
		rec := s.setLocked(key, value)
		return rec.Ver, []jrec{rec}, nil
	})
}

// PutBatchF stores every entry in one round trip under the partition fence:
// the per-operation latency is charged once for the whole batch (one RPC to
// the storage service), and the writes apply atomically under the store
// lock. Each key still receives its own fresh version, assigned in sorted
// key order so batches are deterministic. Returns the highest version
// assigned.
func (s *Store) PutBatchF(part int, epoch uint64, entries map[string][]byte) (uint64, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	return s.fencedWrite(part, epoch, func() (uint64, []jrec, error) {
		last, recs := s.putBatchLocked(entries)
		return last, recs, nil
	})
}

// CreateBatchF atomically creates every entry — one charged write — under
// the partition fence, failing with ErrVersionMismatch (and writing nothing)
// if any key already exists. Concurrent writers racing to create the same
// generation of keys collide on the first common key instead of silently
// overwriting each other, which is what makes CAS-style
// read-recompute-retry loops possible over batches.
func (s *Store) CreateBatchF(part int, epoch uint64, entries map[string][]byte) (uint64, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	return s.fencedWrite(part, epoch, func() (uint64, []jrec, error) {
		return s.createBatchLocked(entries)
	})
}

// CASF stores value at key under the partition fence only if the current
// version equals expect (0 means "key must not exist").
func (s *Store) CASF(part int, epoch uint64, key string, expect uint64, value []byte) (uint64, error) {
	return s.fencedWrite(part, epoch, func() (uint64, []jrec, error) {
		return s.casLocked(key, expect, value)
	})
}

// DeleteF removes key under the partition fence, returning the tombstone
// version assigned to the removal so a replicating client can forward the
// delete to followers with ordering information. Deleting a missing key is
// an error so callers notice protocol bugs.
func (s *Store) DeleteF(part int, epoch uint64, key string) (uint64, error) {
	return s.fencedWrite(part, epoch, func() (uint64, []jrec, error) {
		return s.deleteLocked(key)
	})
}

// DeleteBatchF removes every key in one charged write under the partition
// fence, returning the highest tombstone version assigned. Missing keys are
// ignored (callers prune superseded entries, and a concurrent pruner is not
// a protocol error), but every key — present or missing — consumes one
// version in sorted key order, so the caller can reconstruct each key's
// tombstone version from the returned high-water mark exactly as PutBatchF
// callers do.
func (s *Store) DeleteBatchF(part int, epoch uint64, keys []string) (uint64, error) {
	if len(keys) == 0 {
		return 0, nil
	}
	return s.fencedWrite(part, epoch, func() (uint64, []jrec, error) {
		last, recs := s.deleteBatchLocked(keys)
		return last, recs, nil
	})
}

// Apply installs a replicated commit on a follower. The commit carries the
// fence epoch of the client's view of partition part: an epoch older than the
// highest this replica has accepted is refused with ErrFenced — that is the
// fence that stops a deposed primary's writes from being acknowledged. A
// newer epoch raises the fence and is journaled like a promoted one, so a
// restarted replica keeps refusing deposed epochs it learned about only
// through replication. Within an accepted epoch, sets and deletes apply only
// if their primary-assigned version is newer than the key's applied
// high-water mark, so replayed or reordered commits converge to the
// primary's order.
func (s *Store) Apply(part int, epoch uint64, c Commit) error {
	_, err := s.fencedWrite(part, epoch, func() (uint64, []jrec, error) {
		var recs []jrec
		for _, kv := range c.Sets {
			if kv.Ver <= s.applied[kv.Key] {
				continue
			}
			s.applied[kv.Key] = kv.Ver
			stored := make([]byte, len(kv.Val))
			copy(stored, kv.Val)
			s.data[kv.Key] = entry{value: stored, version: kv.Ver}
			recs = append(recs, jrec{Op: jSet, Key: kv.Key, Val: stored, Ver: kv.Ver})
			if kv.Ver >= s.next {
				s.next = kv.Ver + 1
			}
		}
		for _, kd := range c.Dels {
			if kd.Ver <= s.applied[kd.Key] {
				continue
			}
			s.applied[kd.Key] = kd.Ver
			delete(s.data, kd.Key)
			recs = append(recs, jrec{Op: jDel, Key: kd.Key, Ver: kd.Ver})
			if kd.Ver >= s.next {
				s.next = kd.Ver + 1
			}
		}
		return 0, recs, nil
	})
	return err
}

// Promote advances partition part's fence epoch to epoch. It is a pure fence
// advance: primaryship is derived from the epoch by the replica-list
// convention (see Replicated), so promoting an epoch onto a replica does not
// make that replica the primary — failover spreads the same epoch across the
// set until a majority holds it. A claim older than the current fence is
// refused with ErrFenced (someone promoted past us); an equal claim is
// idempotent. Returns the fence in force after the call.
func (s *Store) Promote(part int, epoch uint64) (uint64, error) {
	if err := s.charge(); err != nil {
		return 0, err
	}
	s.writes.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.serviceLocked()
	cur := s.fences[part]
	if epoch < cur {
		return cur, fmt.Errorf("partition %d: promote epoch %d < fence %d: %w", part, epoch, cur, ErrFenced)
	}
	if epoch > cur {
		s.fences[part] = epoch
		if err := s.commitLocked([]jrec{{Op: jFence, Key: strconv.Itoa(part), Ver: epoch}}); err != nil {
			return 0, err
		}
	}
	return s.fences[part], nil
}

// FenceEpoch reports the highest fence epoch this replica has accepted for
// partition part (zero if it has never seen one).
func (s *Store) FenceEpoch(part int) (uint64, error) {
	if err := s.charge(); err != nil {
		return 0, err
	}
	s.reads.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fences[part], nil
}

// Close releases backend resources. The in-memory store holds none.
func (s *Store) Close() error { return nil }

// Fail makes the store return ErrUnavailable until Recover is called.
func (s *Store) Fail() { s.down.Store(true) }

// Recover restores availability after Fail.
func (s *Store) Recover() { s.down.Store(false) }

// Stats reports operation counts (for tests and the bench harness).
func (s *Store) Stats() (reads, writes uint64) {
	return s.reads.Load(), s.writes.Load()
}
