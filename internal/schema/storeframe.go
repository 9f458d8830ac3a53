package schema

// Store and migration control frames on the hot codec. A group move makes
// ~19 store round trips (its WAL steps, the mapping publish, and each write's
// follower Applies) plus a migrate command, a transfer ack and, on a lost
// ack, a transfer query, so their codec cost multiplies into every move.
// These frames share the submit frames' layout rules: the [HotMagic, type]
// header, varint integers, length-prefixed strings, and interned strings for
// the small closed sets (store op selectors, wire error kinds). Byte values
// are optional on the wire — uvarint(len+1), 0 for nil — so a nil Value and
// an empty one both survive; empty collections decode as nil. Decoded values
// never alias the frame.

import (
	"fmt"

	"aeon/internal/cloudstore"
	"aeon/internal/ownership"
)

// StoreReq is one cloud-store operation. Op selects the cloudstore.ReplicaAPI
// method; Part/Epoch ride the replica-plane ops (the fenced surface, apply,
// promote, epoch); Commit rides apply only.
type StoreReq struct {
	Op      string
	Key     string
	Keys    []string
	Value   []byte
	Entries map[string][]byte
	Expect  uint64
	Part    int
	Epoch   uint64
	Commit  cloudstore.Commit
}

// StoreResp is the result of a store operation. Err/ErrKind carry a failure
// in-band; a refused Promote still reports the accepted fence in Version.
type StoreResp struct {
	Value   []byte
	Version uint64
	Keys    []string
	Err     string
	ErrKind string
}

// MigrateReq asks the receiving node to migrate a group it hosts to server
// To.
type MigrateReq struct {
	Root ownership.ID
	To   int64
}

// AckResp acknowledges a control frame that returns nothing but its outcome:
// a commanded migration or a state transfer.
type AckResp struct {
	Err     string
	ErrKind string
}

// TransferQueryReq probes whether the destination committed a transfer:
// Probe is the group's root (first member), To the destination server.
type TransferQueryReq struct {
	Probe ownership.ID
	To    int64
}

// TransferQueryResp answers a commit probe.
type TransferQueryResp struct {
	Committed bool
}

// ---- shared field codecs ----

// putOptBytes encodes a byte slice that may be nil: uvarint(len+1), or 0.
func putOptBytes(dst, b []byte) []byte {
	if b == nil {
		return append(dst, 0)
	}
	dst = putUvarint(dst, uint64(len(b))+1)
	return append(dst, b...)
}

// optBytes decodes a putOptBytes field into a fresh slice.
func (r *hotReader) optBytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil || n == 0 {
		return nil, err
	}
	b, err := r.take(n - 1)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// count decodes a collection length, rejecting one the remaining frame
// cannot possibly hold (every element takes at least one byte), so a corrupt
// count fails before it sizes an allocation.
func (r *hotReader) count(what string) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(r.b)-r.off) {
		return 0, r.fail(what + " count overflow")
	}
	return int(n), nil
}

func putStrings(dst []byte, ss []string) []byte {
	dst = putUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = putString(dst, s)
	}
	return dst
}

// strs decodes a putStrings field.
func (r *hotReader) strs() ([]string, error) {
	n, err := r.count("string")
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		s, err := r.str()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// ---- StoreReq ----

// MarshalWire appends the frame to dst.
func (q *StoreReq) MarshalWire(dst []byte) ([]byte, error) {
	dst = append(dst, HotMagic, hotTypeStoreReq)
	dst = putString(dst, q.Op)
	dst = putVarint(dst, int64(q.Part))
	dst = putUvarint(dst, q.Epoch)
	dst = putUvarint(dst, q.Expect)
	dst = putString(dst, q.Key)
	dst = putOptBytes(dst, q.Value)
	dst = putStrings(dst, q.Keys)
	dst = putUvarint(dst, uint64(len(q.Entries)))
	for k, v := range q.Entries {
		dst = putString(dst, k)
		dst = putOptBytes(dst, v)
	}
	dst = putUvarint(dst, uint64(len(q.Commit.Sets)))
	for i := range q.Commit.Sets {
		kv := &q.Commit.Sets[i]
		dst = putString(dst, kv.Key)
		dst = putOptBytes(dst, kv.Val)
		dst = putUvarint(dst, kv.Ver)
	}
	dst = putUvarint(dst, uint64(len(q.Commit.Dels)))
	for i := range q.Commit.Dels {
		dst = putString(dst, q.Commit.Dels[i].Key)
		dst = putUvarint(dst, q.Commit.Dels[i].Ver)
	}
	return dst, nil
}

// UnmarshalWire decodes a frame produced by MarshalWire into q, replacing
// every field.
func (q *StoreReq) UnmarshalWire(b []byte) error {
	r := hotReader{b: b}
	if err := r.header(hotTypeStoreReq); err != nil {
		return err
	}
	var out StoreReq
	var err error
	if out.Op, err = r.internedStr(); err != nil {
		return err
	}
	part, err := r.varint()
	if err != nil {
		return err
	}
	if int64(int(part)) != part {
		return r.fail("partition overflow")
	}
	out.Part = int(part)
	if out.Epoch, err = r.uvarint(); err != nil {
		return err
	}
	if out.Expect, err = r.uvarint(); err != nil {
		return err
	}
	if out.Key, err = r.str(); err != nil {
		return err
	}
	if out.Value, err = r.optBytes(); err != nil {
		return err
	}
	if out.Keys, err = r.strs(); err != nil {
		return err
	}
	n, err := r.count("entry")
	if err != nil {
		return err
	}
	if n > 0 {
		out.Entries = make(map[string][]byte, n)
		for i := 0; i < n; i++ {
			k, err := r.str()
			if err != nil {
				return err
			}
			if out.Entries[k], err = r.optBytes(); err != nil {
				return err
			}
		}
	}
	if n, err = r.count("commit set"); err != nil {
		return err
	}
	if n > 0 {
		out.Commit.Sets = make([]cloudstore.KV, n)
		for i := range out.Commit.Sets {
			kv := &out.Commit.Sets[i]
			if kv.Key, err = r.str(); err != nil {
				return err
			}
			if kv.Val, err = r.optBytes(); err != nil {
				return err
			}
			if kv.Ver, err = r.uvarint(); err != nil {
				return err
			}
		}
	}
	if n, err = r.count("commit delete"); err != nil {
		return err
	}
	if n > 0 {
		out.Commit.Dels = make([]cloudstore.KD, n)
		for i := range out.Commit.Dels {
			kd := &out.Commit.Dels[i]
			if kd.Key, err = r.str(); err != nil {
				return err
			}
			if kd.Ver, err = r.uvarint(); err != nil {
				return err
			}
		}
	}
	*q = out
	return nil
}

// ---- StoreResp ----

// MarshalWire appends the frame to dst.
func (p *StoreResp) MarshalWire(dst []byte) ([]byte, error) {
	dst = append(dst, HotMagic, hotTypeStoreResp)
	dst = putUvarint(dst, p.Version)
	dst = putString(dst, p.ErrKind)
	dst = putString(dst, p.Err)
	dst = putOptBytes(dst, p.Value)
	return putStrings(dst, p.Keys), nil
}

// UnmarshalWire decodes a frame produced by MarshalWire into p, replacing
// every field.
func (p *StoreResp) UnmarshalWire(b []byte) error {
	r := hotReader{b: b}
	if err := r.header(hotTypeStoreResp); err != nil {
		return err
	}
	var out StoreResp
	var err error
	if out.Version, err = r.uvarint(); err != nil {
		return err
	}
	if out.ErrKind, err = r.internedStr(); err != nil {
		return err
	}
	if out.Err, err = r.str(); err != nil {
		return err
	}
	if out.Value, err = r.optBytes(); err != nil {
		return err
	}
	if out.Keys, err = r.strs(); err != nil {
		return err
	}
	*p = out
	return nil
}

// ---- MigrateReq ----

// MarshalWire appends the frame to dst.
func (m *MigrateReq) MarshalWire(dst []byte) ([]byte, error) {
	dst = append(dst, HotMagic, hotTypeMigrateReq)
	dst = putUvarint(dst, uint64(m.Root))
	return putVarint(dst, m.To), nil
}

// UnmarshalWire decodes a frame produced by MarshalWire.
func (m *MigrateReq) UnmarshalWire(b []byte) error {
	r := hotReader{b: b}
	if err := r.header(hotTypeMigrateReq); err != nil {
		return err
	}
	root, err := r.uvarint()
	if err != nil {
		return err
	}
	to, err := r.varint()
	if err != nil {
		return err
	}
	m.Root, m.To = ownership.ID(root), to
	return nil
}

// ---- AckResp ----

// MarshalWire appends the frame to dst.
func (a *AckResp) MarshalWire(dst []byte) ([]byte, error) {
	dst = append(dst, HotMagic, hotTypeAckResp)
	dst = putString(dst, a.ErrKind)
	return putString(dst, a.Err), nil
}

// UnmarshalWire decodes a frame produced by MarshalWire.
func (a *AckResp) UnmarshalWire(b []byte) error {
	r := hotReader{b: b}
	if err := r.header(hotTypeAckResp); err != nil {
		return err
	}
	kind, err := r.internedStr()
	if err != nil {
		return err
	}
	msg, err := r.str()
	if err != nil {
		return err
	}
	a.ErrKind, a.Err = kind, msg
	return nil
}

// ---- TransferQueryReq ----

// MarshalWire appends the frame to dst.
func (t *TransferQueryReq) MarshalWire(dst []byte) ([]byte, error) {
	dst = append(dst, HotMagic, hotTypeTransferQueryReq)
	dst = putUvarint(dst, uint64(t.Probe))
	return putVarint(dst, t.To), nil
}

// UnmarshalWire decodes a frame produced by MarshalWire.
func (t *TransferQueryReq) UnmarshalWire(b []byte) error {
	r := hotReader{b: b}
	if err := r.header(hotTypeTransferQueryReq); err != nil {
		return err
	}
	probe, err := r.uvarint()
	if err != nil {
		return err
	}
	to, err := r.varint()
	if err != nil {
		return err
	}
	t.Probe, t.To = ownership.ID(probe), to
	return nil
}

// ---- TransferQueryResp ----

// MarshalWire appends the frame to dst.
func (t *TransferQueryResp) MarshalWire(dst []byte) ([]byte, error) {
	c := byte(0)
	if t.Committed {
		c = 1
	}
	return append(dst, HotMagic, hotTypeTransferQueryResp, c), nil
}

// UnmarshalWire decodes a frame produced by MarshalWire.
func (t *TransferQueryResp) UnmarshalWire(b []byte) error {
	r := hotReader{b: b}
	if err := r.header(hotTypeTransferQueryResp); err != nil {
		return err
	}
	c, err := r.byte()
	if err != nil {
		return err
	}
	if c > 1 {
		return r.fail(fmt.Sprintf("bad commit flag %d", c))
	}
	t.Committed = c == 1
	return nil
}
