package cloudstore

import (
	"hash/fnv"
	"sort"
	"strings"
)

// Partitioned is a sharded cloud-store client: it routes every operation to
// the Replicated client of the partition owning the key and implements API,
// so the eManager, the replication log, and the migration engine shard
// transparently.
//
// Routing hashes the key's *prefix group* — the key up to its last '/' (the
// whole key when it has none) — so each key family lands wholly on one
// partition: all `map/<id>` entries share one shard, every `replog/rec/<seq>`
// record shares one shard (the log's CAS commit point stays per-key on one
// store), and each context tree's `snapshot/<root>/<seq>` history co-locates.
// Cross-partition batches are therefore rare, but still correct (see
// CreateBatch for the rollback discipline).
type Partitioned struct {
	parts []*Replicated
}

var _ API = (*Partitioned)(nil)

// NewPartitioned returns a client routing over the given partitions in
// order. Partition count is a deployment-time constant: every client must be
// constructed with the same list or keys route inconsistently.
func NewPartitioned(parts ...*Replicated) *Partitioned {
	if len(parts) == 0 {
		panic("cloudstore: NewPartitioned needs at least one partition")
	}
	return &Partitioned{parts: parts}
}

// Parts reports the partition count.
func (p *Partitioned) Parts() int { return len(p.parts) }

// Partition returns the client serving partition i (the ops plane uses it
// to reach each partition's view).
func (p *Partitioned) Partition(i int) *Replicated { return p.parts[i] }

// PartitionOf reports which partition owns key.
func (p *Partitioned) PartitionOf(key string) int {
	return partitionOf(key, len(p.parts))
}

func partitionOf(key string, n int) int {
	if n == 1 {
		return 0
	}
	group := key
	if i := strings.LastIndexByte(key, '/'); i >= 0 {
		group = key[:i]
	}
	h := fnv.New32a()
	h.Write([]byte(group))
	return int(h.Sum32() % uint32(n))
}

func (p *Partitioned) Get(key string) ([]byte, uint64, error) {
	return p.parts[p.PartitionOf(key)].Get(key)
}

func (p *Partitioned) Put(key string, value []byte) (uint64, error) {
	return p.parts[p.PartitionOf(key)].Put(key, value)
}

func (p *Partitioned) CAS(key string, expect uint64, value []byte) (uint64, error) {
	return p.parts[p.PartitionOf(key)].CAS(key, expect, value)
}

func (p *Partitioned) Delete(key string) error {
	return p.parts[p.PartitionOf(key)].Delete(key)
}

// group splits a batch by owning partition.
func (p *Partitioned) group(keys []string) map[int][]string {
	out := make(map[int][]string)
	for _, k := range keys {
		i := p.PartitionOf(k)
		out[i] = append(out[i], k)
	}
	return out
}

// split divides a batch of entries by owning partition.
func (p *Partitioned) split(entries map[string][]byte) map[int]map[string][]byte {
	sub := make(map[int]map[string][]byte)
	for k, v := range entries {
		i := p.PartitionOf(k)
		if sub[i] == nil {
			sub[i] = make(map[string][]byte)
		}
		sub[i][k] = v
	}
	return sub
}

// PutBatch routes each entry to its partition. Atomicity holds per
// partition; versions are per-partition sequences, so the returned version
// is the highest assigned and only meaningful for single-partition batches
// (which prefix-group routing makes the common case).
func (p *Partitioned) PutBatch(entries map[string][]byte) (uint64, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	sub := p.split(entries)
	var last uint64
	for _, i := range sortedKeys(sub) {
		v, err := p.parts[i].PutBatch(sub[i])
		if err != nil {
			return 0, err
		}
		if v > last {
			last = v
		}
	}
	return last, nil
}

// CreateBatch routes each entry to its partition, creating sub-batches in
// partition order. If a later sub-batch collides (some key exists), the
// already-created sub-batches are rolled back best-effort before returning
// ErrVersionMismatch, preserving the read-recompute-retry discipline: a
// retrying caller re-reads and recreates the full generation. The rollback
// deletes by key, not by version, so it races concurrent writers: a Put/CAS
// that overwrote one of our just-created keys before the rollback runs has
// its committed value deleted along with ours. Callers that create keys
// other writers may immediately overwrite must not rely on cross-partition
// CreateBatch atomicity (prefix-group routing keeps the store's own callers
// on single-partition batches, where the store rolls back atomically under
// its lock instead).
func (p *Partitioned) CreateBatch(entries map[string][]byte) (uint64, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	sub := p.split(entries)
	order := sortedKeys(sub)
	var last uint64
	for n, i := range order {
		v, err := p.parts[i].CreateBatch(sub[i])
		if err != nil {
			// Roll back the sub-batches already created so a retry starts
			// from a clean slate. Best-effort: a partition that died mid-
			// rollback leaves orphans for the caller's retry to collide on.
			for _, j := range order[:n] {
				_ = p.parts[j].DeleteBatch(sortedKeys(sub[j]))
			}
			return 0, err
		}
		if v > last {
			last = v
		}
	}
	return last, nil
}

// DeleteBatch routes each key to its partition; missing keys stay ignored.
func (p *Partitioned) DeleteBatch(keys []string) error {
	if len(keys) == 0 {
		return nil
	}
	grouped := p.group(keys)
	for _, i := range sortedKeys(grouped) {
		if err := p.parts[i].DeleteBatch(grouped[i]); err != nil {
			return err
		}
	}
	return nil
}

// List fans out to every partition and merges the sorted results.
func (p *Partitioned) List(prefix string) ([]string, error) {
	var out []string
	for _, part := range p.parts {
		keys, err := part.List(prefix)
		if err != nil {
			return nil, err
		}
		out = append(out, keys...)
	}
	sort.Strings(out)
	return out, nil
}
