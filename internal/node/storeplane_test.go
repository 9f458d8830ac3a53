package node

// Store-plane tests: wire-level sentinel fidelity for every store op, the
// RemoteStore lifecycle context, the sharded/replicated deployment against
// the single-process oracle, and the store-failover chaos smoke (kill a
// partition's primary store server mid-traffic; the fleet must converge
// with no split brain).

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"aeon/internal/cloudstore"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// storeWireRig is a StoreServer and a RemoteStore client on one in-memory
// mesh: every op crosses the full encode→handle→execStoreOp→errFields→
// WireError path.
func storeWireRig(t *testing.T) (*cloudstore.Store, *RemoteStore) {
	t.Helper()
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	st := cloudstore.New()
	srv, err := ServeStore(mesh, StoreIDBase+1, st)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ep, err := mesh.Attach(999, func(context.Context, transport.NodeID, transport.Message) (transport.Message, error) {
		return transport.Message{}, errors.New("client endpoint serves nothing")
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	return st, NewRemoteStore(ep, StoreIDBase+1, 5*time.Second, nil)
}

// TestStoreWireSentinelRoundTrip pins that every cloudstore sentinel
// survives the RemoteStore→handler→WireError translation for every store
// op: ErrUnavailable for all of them (a downed replica must look downed, or
// failover never triggers), and the op-specific semantic sentinels
// (ErrNotFound, ErrVersionMismatch, ErrFenced) where the op can produce
// them. The client-API rows (Get … List) run through a one-replica
// Replicated over the RemoteStore — the single-store deployment — whose
// errors must reach the caller as the replica reported them.
func TestStoreWireSentinelRoundTrip(t *testing.T) {
	single := func(r *RemoteStore) *cloudstore.Replicated { return cloudstore.NewReplicated(0, r) }
	// Every op, for the all-ops ErrUnavailable sweep.
	allOps := []struct {
		name string
		op   func(r *RemoteStore) error
	}{
		{"Get", func(r *RemoteStore) error { _, _, err := single(r).Get("k"); return err }},
		{"Put", func(r *RemoteStore) error { _, err := single(r).Put("k", nil); return err }},
		{"PutBatch", func(r *RemoteStore) error { _, err := single(r).PutBatch(map[string][]byte{"k": nil}); return err }},
		{"CreateBatch", func(r *RemoteStore) error { _, err := single(r).CreateBatch(map[string][]byte{"k": nil}); return err }},
		{"CAS", func(r *RemoteStore) error { _, err := single(r).CAS("k", 0, nil); return err }},
		{"Delete", func(r *RemoteStore) error { return single(r).Delete("k") }},
		{"DeleteBatch", func(r *RemoteStore) error { return single(r).DeleteBatch([]string{"k"}) }},
		{"List", func(r *RemoteStore) error { _, err := single(r).List(""); return err }},
		{"GetF", func(r *RemoteStore) error { _, _, err := r.GetF(0, 1, "k"); return err }},
		{"ListF", func(r *RemoteStore) error { _, err := r.ListF(0, 1, ""); return err }},
		{"PutF", func(r *RemoteStore) error { _, err := r.PutF(0, 1, "k", nil); return err }},
		{"PutBatchF", func(r *RemoteStore) error { _, err := r.PutBatchF(0, 1, map[string][]byte{"k": nil}); return err }},
		{"CreateBatchF", func(r *RemoteStore) error { _, err := r.CreateBatchF(0, 1, map[string][]byte{"k": nil}); return err }},
		{"CASF", func(r *RemoteStore) error { _, err := r.CASF(0, 1, "k", 0, nil); return err }},
		{"DeleteF", func(r *RemoteStore) error { _, err := r.DeleteF(0, 1, "k"); return err }},
		{"DeleteBatchF", func(r *RemoteStore) error { _, err := r.DeleteBatchF(0, 1, []string{"k"}); return err }},
		{"Apply", func(r *RemoteStore) error { return r.Apply(0, 1, cloudstore.Commit{}) }},
		{"Promote", func(r *RemoteStore) error { _, err := r.Promote(0, 1); return err }},
		{"FenceEpoch", func(r *RemoteStore) error { _, err := r.FenceEpoch(0); return err }},
	}
	for _, tc := range allOps {
		t.Run("Unavailable/"+tc.name, func(t *testing.T) {
			st, r := storeWireRig(t)
			st.Fail()
			if err := tc.op(r); !errors.Is(err, cloudstore.ErrUnavailable) {
				t.Fatalf("err = %v; want ErrUnavailable", err)
			}
		})
	}

	// Op-specific semantic sentinels.
	putK := func(st *cloudstore.Store) { _, _ = st.PutF(0, 1, "k", []byte("v")) }
	fence5 := func(st *cloudstore.Store) { _, _ = st.Promote(0, 5) }
	semantic := []struct {
		name  string
		setup func(st *cloudstore.Store)
		op    func(r *RemoteStore) error
		want  error
	}{
		{"Get/NotFound", nil,
			func(r *RemoteStore) error { _, _, err := single(r).Get("ghost"); return err }, cloudstore.ErrNotFound},
		{"Delete/NotFound", nil,
			func(r *RemoteStore) error { return single(r).Delete("ghost") }, cloudstore.ErrNotFound},
		{"GetF/NotFound", nil,
			func(r *RemoteStore) error { _, _, err := r.GetF(0, 1, "ghost"); return err }, cloudstore.ErrNotFound},
		{"DeleteF/NotFound", nil,
			func(r *RemoteStore) error { _, err := r.DeleteF(0, 1, "ghost"); return err }, cloudstore.ErrNotFound},
		{"CASF/VersionMismatch", putK,
			func(r *RemoteStore) error { _, err := r.CASF(0, 1, "k", 99, nil); return err }, cloudstore.ErrVersionMismatch},
		{"CreateBatchF/VersionMismatchExists", putK,
			func(r *RemoteStore) error {
				_, err := r.CreateBatchF(0, 1, map[string][]byte{"k": nil})
				return err
			}, cloudstore.ErrVersionMismatch},
		{"GetF/Fenced", fence5,
			func(r *RemoteStore) error { _, _, err := r.GetF(0, 2, "k"); return err }, cloudstore.ErrFenced},
		{"ListF/Fenced", fence5,
			func(r *RemoteStore) error { _, err := r.ListF(0, 2, ""); return err }, cloudstore.ErrFenced},
		{"PutF/Fenced", fence5,
			func(r *RemoteStore) error { _, err := r.PutF(0, 2, "k", nil); return err }, cloudstore.ErrFenced},
		{"PutBatchF/Fenced", fence5,
			func(r *RemoteStore) error { _, err := r.PutBatchF(0, 2, map[string][]byte{"k": nil}); return err }, cloudstore.ErrFenced},
		{"CreateBatchF/Fenced", fence5,
			func(r *RemoteStore) error { _, err := r.CreateBatchF(0, 2, map[string][]byte{"k": nil}); return err }, cloudstore.ErrFenced},
		{"CASF/Fenced", fence5,
			func(r *RemoteStore) error { _, err := r.CASF(0, 2, "k", 0, nil); return err }, cloudstore.ErrFenced},
		{"DeleteF/Fenced", fence5,
			func(r *RemoteStore) error { _, err := r.DeleteF(0, 2, "k"); return err }, cloudstore.ErrFenced},
		{"DeleteBatchF/Fenced", fence5,
			func(r *RemoteStore) error { _, err := r.DeleteBatchF(0, 2, []string{"k"}); return err }, cloudstore.ErrFenced},
		{"CAS/VersionMismatchConflict", putK,
			func(r *RemoteStore) error { _, err := single(r).CAS("k", 99, nil); return err }, cloudstore.ErrVersionMismatch},
		{"CAS/VersionMismatchMissing", nil,
			func(r *RemoteStore) error { _, err := single(r).CAS("ghost", 3, nil); return err }, cloudstore.ErrVersionMismatch},
		{"CreateBatch/VersionMismatchExists", putK,
			func(r *RemoteStore) error {
				_, err := single(r).CreateBatch(map[string][]byte{"k": nil, "fresh": nil})
				return err
			}, cloudstore.ErrVersionMismatch},
		{"Apply/Fenced", fence5,
			func(r *RemoteStore) error { return r.Apply(0, 2, cloudstore.Commit{}) }, cloudstore.ErrFenced},
		{"Promote/Fenced", fence5,
			func(r *RemoteStore) error { _, err := r.Promote(0, 2); return err }, cloudstore.ErrFenced},
	}
	for _, tc := range semantic {
		t.Run(tc.name, func(t *testing.T) {
			st, r := storeWireRig(t)
			if tc.setup != nil {
				tc.setup(st)
			}
			if err := tc.op(r); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v; want %v", err, tc.want)
			}
		})
	}
}

// TestStoreFrameEverySelector replays one script that uses every store
// selector — with nil and empty values, nil, empty and nil-valued entry
// maps, and every sentinel failure — against a local cloudstore.Store and,
// through RemoteStore → StoreServer on the in-memory mesh, against an
// identical one. Every step must return deeply equal results (so a nil
// byte value stays nil and an empty one stays empty across the wire) and
// the same typed error, which must satisfy errors.Is on the remote side.
// Selectors outside the fenced set are refused as unknown store ops.
func TestStoreFrameEverySelector(t *testing.T) {
	type res []any
	entries := map[string][]byte{"b": []byte("2"), "c": nil, "d": {}}
	steps := []struct {
		name string
		op   func(api cloudstore.ReplicaAPI, st *cloudstore.Store) (res, error)
		want error // sentinel the step must fail with, or nil for success
	}{
		{"getf/missing", func(a cloudstore.ReplicaAPI, _ *cloudstore.Store) (res, error) {
			v, ver, err := a.GetF(0, 1, "a")
			return res{v, ver}, err
		}, cloudstore.ErrNotFound},
		{"putf", func(a cloudstore.ReplicaAPI, _ *cloudstore.Store) (res, error) {
			v, err := a.PutF(0, 1, "a", []byte("1"))
			return res{v}, err
		}, nil},
		{"putf/nil", func(a cloudstore.ReplicaAPI, _ *cloudstore.Store) (res, error) {
			v, err := a.PutF(0, 1, "nil", nil)
			return res{v}, err
		}, nil},
		{"putf/empty", func(a cloudstore.ReplicaAPI, _ *cloudstore.Store) (res, error) {
			v, err := a.PutF(0, 1, "empty", []byte{})
			return res{v}, err
		}, nil},
		{"getf", func(a cloudstore.ReplicaAPI, _ *cloudstore.Store) (res, error) {
			var out res
			for _, k := range []string{"a", "nil", "empty"} {
				v, ver, err := a.GetF(0, 1, k)
				if err != nil {
					return out, err
				}
				out = append(out, v, ver)
			}
			return out, nil
		}, nil},
		{"putbatchf", func(a cloudstore.ReplicaAPI, _ *cloudstore.Store) (res, error) {
			v, err := a.PutBatchF(0, 1, entries)
			return res{v}, err
		}, nil},
		{"putbatchf/nil-and-empty", func(a cloudstore.ReplicaAPI, _ *cloudstore.Store) (res, error) {
			v1, err := a.PutBatchF(0, 1, nil)
			if err != nil {
				return nil, err
			}
			v2, err := a.PutBatchF(0, 1, map[string][]byte{})
			return res{v1, v2}, err
		}, nil},
		{"createbatchf", func(a cloudstore.ReplicaAPI, _ *cloudstore.Store) (res, error) {
			v, err := a.CreateBatchF(0, 1, map[string][]byte{"e": []byte("x"), "e/nil": nil})
			return res{v}, err
		}, nil},
		{"createbatchf/exists", func(a cloudstore.ReplicaAPI, _ *cloudstore.Store) (res, error) {
			v, err := a.CreateBatchF(0, 1, map[string][]byte{"a": []byte("y")})
			return res{v}, err
		}, cloudstore.ErrVersionMismatch},
		{"casf/conflict", func(a cloudstore.ReplicaAPI, _ *cloudstore.Store) (res, error) {
			v, err := a.CASF(0, 1, "a", 999, []byte("z"))
			return res{v}, err
		}, cloudstore.ErrVersionMismatch},
		{"casf", func(a cloudstore.ReplicaAPI, _ *cloudstore.Store) (res, error) {
			_, ver, err := a.GetF(0, 1, "a")
			if err != nil {
				return nil, err
			}
			v, err := a.CASF(0, 1, "a", ver, []byte{})
			return res{v}, err
		}, nil},
		{"deletef", func(a cloudstore.ReplicaAPI, _ *cloudstore.Store) (res, error) {
			v, err := a.DeleteF(0, 1, "b")
			return res{v}, err
		}, nil},
		{"deletef/missing", func(a cloudstore.ReplicaAPI, _ *cloudstore.Store) (res, error) {
			v, err := a.DeleteF(0, 1, "zz")
			return res{v}, err
		}, cloudstore.ErrNotFound},
		{"deletebatchf", func(a cloudstore.ReplicaAPI, _ *cloudstore.Store) (res, error) {
			v1, err := a.DeleteBatchF(0, 1, nil)
			if err != nil {
				return nil, err
			}
			v2, err := a.DeleteBatchF(0, 1, []string{"c", "zz"})
			return res{v1, v2}, err
		}, nil},
		{"listf", func(a cloudstore.ReplicaAPI, _ *cloudstore.Store) (res, error) {
			all, err := a.ListF(0, 1, "")
			if err != nil {
				return nil, err
			}
			none, err := a.ListF(0, 1, "no-such-prefix")
			return res{all, none}, err
		}, nil},
		{"promote", func(a cloudstore.ReplicaAPI, _ *cloudstore.Store) (res, error) {
			v, err := a.Promote(0, 1)
			return res{v}, err
		}, nil},
		{"epoch", func(a cloudstore.ReplicaAPI, _ *cloudstore.Store) (res, error) {
			v, err := a.FenceEpoch(0)
			return res{v}, err
		}, nil},
		{"apply", func(a cloudstore.ReplicaAPI, _ *cloudstore.Store) (res, error) {
			err := a.Apply(0, 1, cloudstore.Commit{
				Sets: []cloudstore.KV{{Key: "h", Val: []byte("v"), Ver: 1000}, {Key: "i", Ver: 1001}, {Key: "j", Val: []byte{}, Ver: 1002}},
				Dels: []cloudstore.KD{{Key: "e", Ver: 1003}},
			})
			if err != nil {
				return nil, err
			}
			if err := a.Apply(0, 1, cloudstore.Commit{}); err != nil {
				return nil, err
			}
			var out res
			for _, k := range []string{"h", "i", "j"} {
				v, ver, err := a.GetF(0, 1, k)
				if err != nil {
					return out, err
				}
				out = append(out, v, ver)
			}
			keys, err := a.ListF(0, 1, "")
			return append(out, keys), err
		}, nil},
		{"promote/advance", func(a cloudstore.ReplicaAPI, _ *cloudstore.Store) (res, error) {
			v, err := a.Promote(0, 5)
			return res{v}, err
		}, nil},
		{"getf/fenced", func(a cloudstore.ReplicaAPI, _ *cloudstore.Store) (res, error) {
			v, ver, err := a.GetF(0, 2, "h")
			return res{v, ver}, err
		}, cloudstore.ErrFenced},
		{"apply/fenced", func(a cloudstore.ReplicaAPI, _ *cloudstore.Store) (res, error) {
			return nil, a.Apply(0, 2, cloudstore.Commit{Sets: []cloudstore.KV{{Key: "k", Ver: 2000}}})
		}, cloudstore.ErrFenced},
		// A refused Promote still reports the accepted fence.
		{"promote/refused", func(a cloudstore.ReplicaAPI, _ *cloudstore.Store) (res, error) {
			v, err := a.Promote(0, 3)
			if v != 5 {
				return res{v}, fmt.Errorf("refused promote reported fence %d; want 5", v)
			}
			return res{v}, err
		}, cloudstore.ErrFenced},
		{"getf/unavailable", func(a cloudstore.ReplicaAPI, st *cloudstore.Store) (res, error) {
			st.Fail()
			defer st.Recover()
			v, ver, err := a.GetF(0, 5, "a")
			return res{v, ver}, err
		}, cloudstore.ErrUnavailable},
		{"putf/unavailable", func(a cloudstore.ReplicaAPI, st *cloudstore.Store) (res, error) {
			st.Fail()
			defer st.Recover()
			v, err := a.PutF(0, 5, "a", nil)
			return res{v}, err
		}, cloudstore.ErrUnavailable},
	}
	sentinels := []error{cloudstore.ErrNotFound, cloudstore.ErrVersionMismatch, cloudstore.ErrUnavailable, cloudstore.ErrFenced}
	local := cloudstore.New()
	served, remote := storeWireRig(t)
	for _, step := range steps {
		want, werr := step.op(local, local)
		got, gerr := step.op(remote, served)
		if step.want == nil && werr != nil {
			t.Fatalf("%s: local store failed: %v", step.name, werr)
		}
		if step.want != nil && !errors.Is(gerr, step.want) {
			t.Fatalf("%s: remote err = %v; want %v", step.name, gerr, step.want)
		}
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: local err %v, remote err %v", step.name, werr, gerr)
		}
		for _, s := range sentinels {
			if errors.Is(werr, s) != errors.Is(gerr, s) {
				t.Fatalf("%s: local err %v, remote err %v disagree on %v", step.name, werr, gerr, s)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: remote %#v; local %#v", step.name, got, want)
		}
	}

	// The unfenced selectors are gone from the wire: a frame carrying one
	// is refused as an unknown store op, never executed.
	for _, op := range []string{"get", "put", "putbatch", "createbatch", "cas", "delete", "deletebatch", "list"} {
		_, err := remote.call(schema.StoreReq{Op: op, Key: "a", Value: []byte("x")})
		if err == nil || !strings.Contains(err.Error(), "unknown store op") {
			t.Fatalf("selector %q: err = %v; want an unknown store op refusal", op, err)
		}
		for _, s := range sentinels {
			if errors.Is(err, s) {
				t.Fatalf("selector %q: refusal %v reads as %v", op, err, s)
			}
		}
	}
}

// TestRemoteStorePromoteCarriesFenceOnRefusal pins the failover contract
// over the wire: a fenced Promote must still deliver the accepted epoch so
// the client adopts the newer view without a second round trip.
func TestRemoteStorePromoteCarriesFenceOnRefusal(t *testing.T) {
	st, r := storeWireRig(t)
	if _, err := st.Promote(3, 9); err != nil {
		t.Fatal(err)
	}
	cur, err := r.Promote(3, 4)
	if !errors.Is(err, cloudstore.ErrFenced) {
		t.Fatalf("err = %v; want ErrFenced", err)
	}
	if cur != 9 {
		t.Fatalf("refused promote reported fence %d; want 9", cur)
	}
}

// TestRemoteStoreHonorsBaseContext pins the satellite fix for
// RemoteStore.call using context.Background() unconditionally: calls now
// derive from the owner's lifecycle context, so an abandoned client's ops
// cancel immediately instead of stacking dead calls behind the timeout.
func TestRemoteStoreHonorsBaseContext(t *testing.T) {
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	st := cloudstore.New()
	srv, err := ServeStore(mesh, StoreIDBase+1, st)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ep, err := mesh.Attach(999, func(context.Context, transport.NodeID, transport.Message) (transport.Message, error) {
		return transport.Message{}, errors.New("client endpoint serves nothing")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	base, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRemoteStore(ep, StoreIDBase+1, time.Hour, base)
	start := time.Now()
	_, werr := r.PutF(0, 1, "k", nil)
	if werr == nil {
		t.Fatal("call under a canceled lifecycle must fail")
	}
	if !errors.Is(werr, context.Canceled) {
		t.Fatalf("err = %v; want context.Canceled", werr)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("canceled call took %v; must not wait out the timeout", elapsed)
	}
}

// deployStorePlane builds an n-node replicated deployment whose cloud store
// is the sharded, replicated store plane (parts × StoreRF store servers)
// over the given mesh.
func deployStorePlane(t *testing.T, mesh transport.Mesh, nodes, parts int) *Deployment {
	t.Helper()
	d, err := Deploy(mesh, Topology{Nodes: nodes, Replicate: true, StoreParts: parts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if err := d.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestStorePlaneDeploymentMatchesOracle runs the full static + dynamic
// workload — including runtime context creation sequenced through the
// replication log, whose CAS commit point now lives on one partition of the
// store plane — and diffs every outcome against the single-process oracle.
func TestStorePlaneDeploymentMatchesOracle(t *testing.T) {
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	d := deployStorePlane(t, mesh, 3, 2)

	n1 := d.Nodes[0]
	static := RunBankScript(n1.Submit, d.Top)
	dynamic := RunBankDynamicScript(n1.Submit, d.Top)
	wantStatic, wantDynamic, err := BankDynamicOracle(3, 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	diffScripts(t, "static", static, wantStatic)
	diffScripts(t, "dynamic", dynamic, wantDynamic)

	// The plane really is sharded: both partitions' primaries hold keys.
	for p := 0; p < 2; p++ {
		keys, err := cloudstore.ReplicaKeys(d.StoreBackends[StoreRF*p], p, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) == 0 {
			t.Fatalf("partition %d primary holds no keys; keyspace not sharded", p)
		}
	}
}

// replogPartition reports which of n partitions owns the replication log's
// record keys (the CAS-sequenced commit point — the hottest store state).
func replogPartition(n int) int {
	probe := cloudstore.NewPartitioned(make([]*cloudstore.Replicated, n)...)
	return probe.PartitionOf("replog/rec/00000000000000000001")
}

// TestStoreFailoverChaos is the store-loss chaos smoke: under a fault-
// injecting mesh, kill the store primary of the partition serving the
// replication log mid-traffic. Writes must resume through the promoted
// follower (CAS-fenced failover), runtime context creation must keep
// sequencing through the log, and the full outcome stream must still match
// the single-process oracle — no split brain, no lost acks.
func TestStoreFailoverChaos(t *testing.T) {
	net := transport.NewSim(transport.SimConfig{})
	fm := transport.NewFaultyMesh(transport.NewInMemMesh(net))
	d := deployStorePlane(t, fm, 3, 2)
	n1 := d.Nodes[0]

	// Phase 1: static traffic with the full plane up.
	static := RunBankScript(n1.Submit, d.Top)

	// Mid-traffic fault: first sever node 1 from the other partition's
	// primary (transport fault, not a crash) so its client must fail over
	// on a dropped call…
	p := replogPartition(2)
	other := 1 - p
	otherPrimary := StoreIDBase + transport.NodeID(StoreRF*other+1)
	fm.Drop(1, otherPrimary)
	// …then kill the replog partition's primary outright: its endpoint
	// detaches, every in-flight and future call fails fast, and the
	// follower must be promoted by whichever client trips first.
	if srv := d.StoreServerFor(StoreIDBase + transport.NodeID(StoreRF*p+1)); srv != nil {
		_ = srv.Close()
	} else {
		t.Fatalf("no store server for partition %d primary", p)
	}

	// Phase 2: dynamic traffic through the degraded plane — context
	// creation CASes records into the replication log via the promoted
	// follower.
	dynamic := RunBankDynamicScript(n1.Submit, d.Top)

	wantStatic, wantDynamic, err := BankDynamicOracle(3, 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	diffScripts(t, "static", static, wantStatic)
	diffScripts(t, "dynamic", dynamic, wantDynamic)

	// The replog partition failed over: its follower's fence epoch moved
	// past the boot epoch, and the follower holds the post-kill records.
	fol := d.StoreBackends[StoreRF*p+1]
	epoch, err := fol.FenceEpoch(p)
	if err != nil {
		t.Fatal(err)
	}
	if epoch < 2 {
		t.Fatalf("replog partition fence epoch = %d; follower was never promoted", epoch)
	}
	keys, err := cloudstore.ReplicaKeys(fol, p, "replog/rec/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 {
		t.Fatal("promoted follower holds no replication log records")
	}

	// No split brain: the dead primary's store must not have acknowledged
	// writes the promoted follower never saw. Every record on the dead
	// primary past the follower's set would be an acked-but-lost write;
	// the fence makes that impossible, so the follower's log is a superset.
	dead := d.StoreBackends[StoreRF*p]
	deadKeys, err := cloudstore.ReplicaKeys(dead, p, "replog/rec/")
	if err != nil {
		t.Fatal(err)
	}
	folSet := make(map[string]bool, len(keys))
	for _, k := range keys {
		folSet[k] = true
	}
	for _, k := range deadKeys {
		if !folSet[k] {
			t.Fatalf("dead primary holds %s which the promoted follower never saw — a split-brain ack window", k)
		}
	}

	// The stale-primary fence holds across the mesh: a client still acting
	// for the boot view has its fenced apply refused by the promoted
	// follower.
	err = fol.Apply(p, 1, cloudstore.Commit{Sets: []cloudstore.KV{{Key: "rogue", Val: nil, Ver: 1 << 40}}})
	if !errors.Is(err, cloudstore.ErrFenced) {
		t.Fatalf("stale-epoch apply err = %v; want ErrFenced", err)
	}

	// Heal the dropped link; traffic keeps flowing on the converged view.
	fm.Heal(1, otherPrimary)
	if _, err := n1.Submit(d.Top.Accounts[0][0], "deposit", 1); err != nil {
		t.Fatalf("post-chaos submit: %v", err)
	}
}

// TestStorePlaneTCP runs the sharded plane over real TCP loopback sockets:
// store servers and nodes in one process but separate sockets, the same
// wiring cmd/aeon-node uses.
func TestStorePlaneTCP(t *testing.T) {
	mesh := transport.NewTCPMesh()
	d := deployStorePlane(t, mesh, 2, 2)
	n1 := d.Nodes[0]
	static := RunBankScript(n1.Submit, d.Top)
	wantStatic, _, err := BankDynamicOracle(2, 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	diffScripts(t, "static", static, wantStatic)
}

// TestStorePlaneDiskBackend runs the replicated workload over disk-backed
// store servers, then reopens one journal and checks the state survived.
func TestStorePlaneDiskBackend(t *testing.T) {
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	dir := t.TempDir()
	d, err := Deploy(mesh, Topology{Nodes: 2, Replicate: true, StoreParts: 2, StoreBackend: "disk:" + dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WaitReady(10 * time.Second); err != nil {
		d.Close()
		t.Fatal(err)
	}
	// The dynamic script writes through the store plane (replication-log
	// records, mapping entries); the static one alone would leave the
	// journals empty.
	static := RunBankScript(d.Nodes[0].Submit, d.Top)
	dynamic := RunBankDynamicScript(d.Nodes[0].Submit, d.Top)
	wantStatic, wantDynamic, oerr := BankDynamicOracle(2, 4, 1000)
	if oerr != nil {
		d.Close()
		t.Fatal(oerr)
	}
	diffScripts(t, "static", static, wantStatic)
	diffScripts(t, "dynamic", dynamic, wantDynamic)
	wantKeys := make([]int, 2)
	for p := 0; p < 2; p++ {
		keys, err := cloudstore.ReplicaKeys(d.StoreBackends[StoreRF*p], p, "")
		if err != nil {
			d.Close()
			t.Fatal(err)
		}
		wantKeys[p] = len(keys)
	}
	d.Close()

	// Reopen each partition primary's journal: the replayed state must
	// match what the live backend held, and the plane as a whole must have
	// persisted something.
	total := 0
	for p := 0; p < 2; p++ {
		re, err := cloudstore.OpenDisk(fmt.Sprintf("%s/p%d-r0", dir, p))
		if err != nil {
			t.Fatal(err)
		}
		keys, err := cloudstore.ReplicaKeys(re, p, "")
		re.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != wantKeys[p] {
			t.Fatalf("partition %d journal replay found %d keys; want %d", p, len(keys), wantKeys[p])
		}
		total += len(keys)
	}
	if total == 0 {
		t.Fatal("no partition journal holds any keys; the workload never hit the disk backend")
	}
}
