package node

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
	"aeon/internal/workload"
)

// runScenarioOnHarness deploys scen on a live n-node deployment and replays
// its script through node 1, returning the transcript.
func runScenarioOnHarness(t *testing.T, name string, nodes int) []string {
	t.Helper()
	scen, err := workload.NewScenario(name, nodes)
	if err != nil {
		t.Fatalf("scenario %s: %v", name, err)
	}
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	// Replicate is required for the social workload: a post's virtual-join
	// dominator is minted by whichever node first runs the dominator query,
	// and the mint must reach the mesh through the mutation log before the
	// forwarded event lands on the virtual's host.
	d, err := Deploy(mesh, Topology{Nodes: nodes, Scenario: scen, StoreParts: 2, Replicate: true})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	t.Cleanup(d.Close)
	if err := d.WaitReady(10 * time.Second); err != nil {
		t.Fatalf("mesh not ready: %v", err)
	}
	return scen.Script(d.Nodes[0].Submit)
}

// TestScenarioScriptMatchesOracleOnHarness is the scenario layer's
// ground-truth check: the same deterministic script, run once against a
// single-process runtime (the oracle) and once against a live multi-node
// deployment with real forwarding, must produce identical transcripts —
// including for the social workload, whose multi-owned timelines make every
// post resolve through a virtual-join dominator.
func TestScenarioScriptMatchesOracleOnHarness(t *testing.T) {
	for _, name := range workload.ScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			const nodes = 3
			want, err := workload.Oracle(name, nodes)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			got := runScenarioOnHarness(t, name, nodes)
			if len(got) != len(want) {
				t.Fatalf("transcript length: harness %d oracle %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("transcript diverges at line %d:\n  harness: %s\n  oracle:  %s", i, got[i], want[i])
				}
			}
		})
	}
}

// TestSubmitBatchMaterializesVirtualJoin sends a fresh client's first frame
// — a SubmitBatch — at social users, whose events sequence at their pod's
// virtual join. No node has run a dominator query yet, so each pod join is
// minted by the batch handler's resolve and is not yet placed in any
// directory. The batch path must materialize it and re-read the directory,
// as the single-submit path does, instead of failing the event with
// "unknown context".
func TestSubmitBatchMaterializesVirtualJoin(t *testing.T) {
	const nodes = 3
	scen, err := workload.NewScenario("social", nodes)
	if err != nil {
		t.Fatal(err)
	}
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	d, err := Deploy(mesh, Topology{Nodes: nodes, Scenario: scen, StoreParts: 2, Replicate: true})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	t.Cleanup(d.Close)
	if err := d.WaitReady(10 * time.Second); err != nil {
		t.Fatalf("mesh not ready: %v", err)
	}
	// One post per distinct user, drawn from the scenario's op stream. A post
	// fans out to every timeline of the author's pod and returns the pod size.
	var req schema.SubmitBatchReq
	var want []int
	seen := make(map[ownership.ID]bool)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		op := scen.SoakOp(rng)
		if op.Method != "post" || seen[op.Target] {
			continue
		}
		seen[op.Target] = true
		req.Events = append(req.Events, schema.BatchEvent{Target: op.Target, Method: op.Method, Args: op.Args})
		want = append(want, len(op.Effects))
	}
	if len(req.Events) < nodes {
		t.Fatalf("only %d distinct posts drawn", len(req.Events))
	}
	payload, err := req.MarshalWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := mesh.Attach(900, func(context.Context, transport.NodeID, transport.Message) (transport.Message, error) {
		return transport.Message{}, errors.New("client endpoint serves nothing")
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	raw, err := cli.Call(ctx, d.Nodes[0].ID(), transport.Message{Kind: KindSubmitBatch, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	var resp schema.SubmitBatchResp
	if err := resp.UnmarshalWire(raw.Payload); err != nil {
		t.Fatal(err)
	}
	if len(resp.Outcomes) != len(req.Events) {
		t.Fatalf("%d outcomes for %d events", len(resp.Outcomes), len(req.Events))
	}
	for i, o := range resp.Outcomes {
		if o.Err != "" || o.Result != want[i] {
			t.Errorf("post %d by %v: result %v, err %q (%s); want %d, no error",
				i, req.Events[i].Target, o.Result, o.Err, o.ErrKind, want[i])
		}
	}
}
