package cloudstore

// one wraps replica st as a single-store client: a one-partition,
// one-replica set.
func one(st ReplicaAPI) *Replicated { return NewReplicated(0, st) }

// peek reads key straight from one replica of partition 0 at the fence the
// replica holds, bypassing any client's view.
func peek(st ReplicaAPI, key string) ([]byte, uint64, error) {
	e, err := st.FenceEpoch(0)
	if err != nil {
		return nil, 0, err
	}
	return st.GetF(0, e, key)
}
