package node

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"aeon/internal/core"
	"aeon/internal/schema"
	"aeon/internal/transport"
	"aeon/internal/workload"
)

// submitKindsCase is one outcome class of the submit executor: a fresh
// deployment, an event addressed to one node, and the outcome both frame
// kinds must produce.
type submitKindsCase struct {
	name string
	// deploy builds the deployment; every frame kind gets its own, so both
	// see identical state and the outcomes can be compared field by field.
	deploy func(t *testing.T) (*Deployment, transport.Mesh)
	// event picks the destination node, the event and the frame's hop count.
	event func(t *testing.T, d *Deployment) (transport.NodeID, schema.BatchEvent, uint32)
	// wantKind is the outcome's wire error kind; wantErr, when set, is the
	// sentinel the decoded error must match.
	wantKind string
	wantErr  error
	// check runs after the frame was answered, on its deployment and
	// outcome.
	check func(t *testing.T, d *Deployment, o schema.BatchOutcome)
}

// wantOutcome checks an outcome's result and authoritative host.
func wantOutcome(t *testing.T, o schema.BatchOutcome, result any, host int64) {
	t.Helper()
	if o.Result != result || o.Host != host {
		t.Fatalf("result %v host %d, want %v and %d", o.Result, o.Host, result, host)
	}
}

// firstPost draws the first post from the social scenario's seeded op
// stream.
func firstPost(t *testing.T, d *Deployment) workload.SoakOp {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		if op := d.Scenario.SoakOp(rng); op.Method == "post" {
			return op
		}
	}
	t.Fatal("no post drawn")
	return workload.SoakOp{}
}

func bankDeployment(nodes int) func(t *testing.T) (*Deployment, transport.Mesh) {
	return func(t *testing.T) (*Deployment, transport.Mesh) {
		t.Helper()
		mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
		d, err := Deploy(mesh, Topology{Nodes: nodes})
		if err != nil {
			t.Fatalf("deploy: %v", err)
		}
		t.Cleanup(d.Close)
		return d, mesh
	}
}

func socialDeployment(t *testing.T) (*Deployment, transport.Mesh) {
	t.Helper()
	scen, err := workload.NewScenario("social", 3)
	if err != nil {
		t.Fatal(err)
	}
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	d, err := Deploy(mesh, Topology{Nodes: 3, Scenario: scen, StoreParts: 2, Replicate: true})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	t.Cleanup(d.Close)
	if err := d.WaitReady(10 * time.Second); err != nil {
		t.Fatalf("mesh not ready: %v", err)
	}
	return d, mesh
}

// sendSubmit sends ev to node `to` as one frame of the given kind from a
// fresh client endpoint and returns the answer as a batch outcome.
func sendSubmit(t *testing.T, mesh transport.Mesh, to transport.NodeID, kind string, ev schema.BatchEvent, hops uint32) schema.BatchOutcome {
	t.Helper()
	cli, err := mesh.Attach(900, func(context.Context, transport.NodeID, transport.Message) (transport.Message, error) {
		return transport.Message{}, errors.New("client endpoint serves nothing")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var payload []byte
	if kind == KindSubmit {
		req := schema.SubmitReq{Target: ev.Target, Method: ev.Method, Args: ev.Args, Hops: hops}
		payload, err = req.MarshalWire(nil)
	} else {
		req := schema.SubmitBatchReq{Hops: hops, Events: []schema.BatchEvent{ev}}
		payload, err = req.MarshalWire(nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	raw, err := cli.Call(ctx, to, transport.Message{Kind: kind, Payload: payload})
	if err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	if kind == KindSubmit {
		var resp schema.SubmitResp
		if err := resp.UnmarshalWire(raw.Payload); err != nil {
			t.Fatal(err)
		}
		return schema.BatchOutcome{Result: resp.Result, Host: resp.Host, Err: resp.Err, ErrKind: resp.ErrKind}
	}
	var resp schema.SubmitBatchResp
	if err := resp.UnmarshalWire(raw.Payload); err != nil {
		t.Fatal(err)
	}
	if len(resp.Outcomes) != 1 {
		t.Fatalf("%d outcomes for a one-event batch", len(resp.Outcomes))
	}
	return resp.Outcomes[0]
}

// TestSubmitKindsShareOneExecutor pins that a node.submit frame and a
// one-event node.submit.batch frame run through the same executor: for
// every outcome class, the single-event answer equals outcome 0 of the
// batch answer — same Result, same Host, and the same typed error.
func TestSubmitKindsShareOneExecutor(t *testing.T) {
	cases := []submitKindsCase{
		{
			name:   "executed locally",
			deploy: bankDeployment(2),
			event: func(t *testing.T, d *Deployment) (transport.NodeID, schema.BatchEvent, uint32) {
				return 1, schema.BatchEvent{Target: d.Top.Accounts[0][0], Method: "deposit", Args: []any{5}}, 0
			},
			check: func(t *testing.T, d *Deployment, o schema.BatchOutcome) {
				wantOutcome(t, o, 1005, 1)
				if d.Nodes[0].Executed() != 1 || d.Nodes[0].Forwarded() != 0 {
					t.Fatalf("executed %d forwarded %d, want 1 and 0", d.Nodes[0].Executed(), d.Nodes[0].Forwarded())
				}
			},
		},
		{
			// Bank 2's group moves to server 3 behind node 1's back: node 1
			// forwards to node 2 (stale), which forwards to node 3, and the
			// answer repairs node 1's directory.
			name: "stale route forwarded with host repair",
			deploy: func(t *testing.T) (*Deployment, transport.Mesh) {
				d, mesh := bankDeployment(3)(t)
				if err := d.Nodes[0].MigrateRemote(2, d.Top.Banks[1], 3); err != nil {
					t.Fatalf("migrate: %v", err)
				}
				if srv, _ := d.Nodes[0].Runtime().Directory().Locate(d.Top.Accounts[1][0]); srv != 2 {
					t.Fatalf("node 1 already locates the moved account on %v", srv)
				}
				return d, mesh
			},
			event: func(t *testing.T, d *Deployment) (transport.NodeID, schema.BatchEvent, uint32) {
				return 1, schema.BatchEvent{Target: d.Top.Accounts[1][0], Method: "balance"}, 0
			},
			check: func(t *testing.T, d *Deployment, o schema.BatchOutcome) {
				wantOutcome(t, o, 1000, 3)
				if srv, _ := d.Nodes[0].Runtime().Directory().Locate(d.Top.Accounts[1][0]); srv != 3 {
					t.Fatalf("node 1 did not repair its directory: still %v", srv)
				}
				if d.Nodes[0].Forwarded() != 1 || d.Nodes[1].Forwarded() != 1 || d.Nodes[2].Executed() != 1 {
					t.Fatalf("forwards %d,%d executed %d; want 1,1 and 1",
						d.Nodes[0].Forwarded(), d.Nodes[1].Forwarded(), d.Nodes[2].Executed())
				}
			},
		},
		{
			name:   "unknown context",
			deploy: bankDeployment(2),
			event: func(t *testing.T, d *Deployment) (transport.NodeID, schema.BatchEvent, uint32) {
				return 1, schema.BatchEvent{Target: 9999, Method: "deposit", Args: []any{1}}, 0
			},
			wantKind: errKindUnknownContext, wantErr: core.ErrUnknownContext,
			check: func(t *testing.T, d *Deployment, o schema.BatchOutcome) {
				wantOutcome(t, o, nil, 0)
			},
		},
		{
			name:   "hop budget exhausted",
			deploy: bankDeployment(2),
			event: func(t *testing.T, d *Deployment) (transport.NodeID, schema.BatchEvent, uint32) {
				return 1, schema.BatchEvent{Target: d.Top.Accounts[1][0], Method: "deposit", Args: []any{1}}, 4
			},
			wantKind: errKindTooManyHops, wantErr: ErrTooManyHops,
			check: func(t *testing.T, d *Deployment, o schema.BatchOutcome) {
				wantOutcome(t, o, nil, 2)
				if d.Nodes[0].Forwarded() != 0 || d.Nodes[1].Executed() != 0 {
					t.Fatalf("exhausted frame still moved: forwarded %d executed %d", d.Nodes[0].Forwarded(), d.Nodes[1].Executed())
				}
			},
		},
		{
			// A social post sequences at its pod's virtual join, which no
			// node has minted yet: the executor must materialize it.
			name:   "unmaterialized virtual join",
			deploy: socialDeployment,
			event: func(t *testing.T, d *Deployment) (transport.NodeID, schema.BatchEvent, uint32) {
				op := firstPost(t, d)
				return 1, schema.BatchEvent{Target: op.Target, Method: op.Method, Args: op.Args}, 0
			},
			check: func(t *testing.T, d *Deployment, o schema.BatchOutcome) {
				// A post returns its pod size; the host is wherever the
				// runtime placed the join.
				if want := len(firstPost(t, d).Effects); o.Result != want || o.Host == 0 {
					t.Fatalf("post answered %+v, want result %d and a host", o, want)
				}
			},
		},
		{
			name:   "app error",
			deploy: bankDeployment(2),
			event: func(t *testing.T, d *Deployment) (transport.NodeID, schema.BatchEvent, uint32) {
				return 1, schema.BatchEvent{Target: d.Top.Accounts[0][0], Method: "withdraw", Args: []any{5000}}, 0
			},
			wantKind: errKindApp,
			check: func(t *testing.T, d *Deployment, o schema.BatchOutcome) {
				wantOutcome(t, o, nil, 1)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got [2]schema.BatchOutcome
			for k, kind := range []string{KindSubmit, KindSubmitBatch} {
				d, mesh := tc.deploy(t)
				to, ev, hops := tc.event(t, d)
				got[k] = sendSubmit(t, mesh, to, kind, ev, hops)
				tc.check(t, d, got[k])
			}
			single, batch := got[0], got[1]
			if !reflect.DeepEqual(single, batch) {
				t.Fatalf("node.submit answered %+v, node.submit.batch outcome 0 is %+v", single, batch)
			}
			if single.ErrKind != tc.wantKind {
				t.Fatalf("error kind %q (%s), want %q", single.ErrKind, single.Err, tc.wantKind)
			}
			if tc.wantErr != nil && !errors.Is(WireError(single.ErrKind, single.Err), tc.wantErr) {
				t.Fatalf("error %q does not decode to %v", single.Err, tc.wantErr)
			}
			if (tc.wantKind == errKindNone) != (single.Err == "") {
				t.Fatalf("error %q with kind %q", single.Err, single.ErrKind)
			}
		})
	}
}
