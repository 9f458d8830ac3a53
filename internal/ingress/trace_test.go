package ingress_test

import (
	"testing"

	"aeon/internal/ingress"
	"aeon/internal/node"
	"aeon/internal/transport"
)

// deployTraced builds a 2-node deployment with per-node ops registries and a
// traced ingress client pinned to node 2 — so submits against bank 1
// (hosted on node 1) must forward, leaving spans on both nodes.
func deployTraced(t *testing.T) (*node.Deployment, *ingress.Client) {
	t.Helper()
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	d, err := node.Deploy(mesh, node.Topology{Nodes: 2, EnableOps: true})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	t.Cleanup(d.Close)
	cli, err := ingress.Dial(mesh, ingress.Config{
		Nodes: []transport.NodeID{2},
		Trace: true,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	return d, cli
}

// spansOf drains a node's event feed and returns its trace spans as
// trace→hop→action.
func spansOf(t *testing.T, n *node.Node) map[string]map[int]string {
	t.Helper()
	events, _, _, _ := n.Ops().EventsSince(0)
	out := map[string]map[int]string{}
	for _, ev := range events {
		if ev.Type != "trace.span" {
			continue
		}
		tr := ev.Fields["trace"].(string)
		if out[tr] == nil {
			out[tr] = map[int]string{}
		}
		out[tr][ev.Fields["hop"].(int)] = ev.Fields["action"].(string)
	}
	return out
}

// TestTraceSpansAcrossForward pins end-to-end tracing: a traced ingress
// submit deliberately routed to the wrong node leaves a forward span (hop 0)
// on the misrouted node and an execute span (hop 1) on the owner — same
// trace ID on both, proving the 8-byte trace survives the hot codec and the
// forwarding hop.
func TestTraceSpansAcrossForward(t *testing.T) {
	d, cli := deployTraced(t)

	acct := d.Top.Accounts[0][0]
	if _, err := cli.Submit(acct, "deposit", 5); err != nil {
		t.Fatalf("traced deposit: %v", err)
	}

	entry, owner := spansOf(t, d.Nodes[1]), spansOf(t, d.Nodes[0])
	matched := false
	for tr, hops := range entry {
		if hops[0] == "forward" && owner[tr][1] == "execute" {
			matched = true
		}
	}
	if !matched {
		t.Fatalf("no trace spans both nodes: entry node saw %v, owner saw %v", entry, owner)
	}
}

// TestTraceSpansAcrossBatchForward pins trace propagation through batch
// sub-frames: a traced batch hitting the wrong node is regrouped and
// forwarded as a sub-batch carrying the same trace, so the entry node
// records forward and the owner records execute under one ID — the same
// actions a single-event submit frame leaves.
func TestTraceSpansAcrossBatchForward(t *testing.T) {
	d, cli := deployTraced(t)

	acct := d.Top.Accounts[0][0] // owned by node 1, routed to node 2
	res := cli.SubmitBatch([]ingress.BatchItem{
		{Target: acct, Method: "deposit", Args: []any{1}},
		{Target: acct, Method: "deposit", Args: []any{2}},
	})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("batch deposit %d: %v", i, r.Err)
		}
	}

	entry, owner := spansOf(t, d.Nodes[1]), spansOf(t, d.Nodes[0])
	matched := false
	for tr, hops := range entry {
		if hops[0] == "forward" && owner[tr][1] == "execute" {
			matched = true
		}
	}
	if !matched {
		t.Fatalf("no batch trace spans both nodes: entry saw %v, owner saw %v", entry, owner)
	}
}

// TestTraceSamplingMintsEveryNth pins Config.TraceSample: with a sample
// rate of N, exactly one submit in N carries a trace ID (observable as
// execute spans on the owner), and the rest ride untraced — the escape
// hatch from the ~15–25% always-on tracing tax.
func TestTraceSamplingMintsEveryNth(t *testing.T) {
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	d, err := node.Deploy(mesh, node.Topology{Nodes: 2, EnableOps: true})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	t.Cleanup(d.Close)
	const sample, submits = 4, 20
	cli, err := ingress.Dial(mesh, ingress.Config{
		Nodes:       []transport.NodeID{1},
		Trace:       true,
		TraceSample: sample,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = cli.Close() })

	acct := d.Top.Accounts[0][0] // owned by node 1, no forwarding
	for i := 0; i < submits; i++ {
		if _, err := cli.Submit(acct, "deposit", 1); err != nil {
			t.Fatalf("deposit %d: %v", i, err)
		}
	}
	traces := spansOf(t, d.Nodes[0])
	if want := submits / sample; len(traces) != want {
		t.Fatalf("sampled %d traces out of %d submits at 1/%d, want %d: %v",
			len(traces), submits, sample, want, traces)
	}
}
