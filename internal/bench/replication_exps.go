package bench

// The `replication` experiment measures what the replicated
// ownership-metadata control plane costs: the latency of a runtime context
// creation (one CAS-append round against the authoritative store plus the
// local apply), how long until the mutation is visible on a peer replica
// (one notify frame + tail apply), and — the property the design hinges on
// — that steady-state local submits stay mesh- and log-free, so event
// throughput is unchanged whether replication is on or off. Recorded as
// BENCH_5.json.

import (
	"fmt"
	"time"

	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/node"
	"aeon/internal/ownership"
	"aeon/internal/replication"
	"aeon/internal/transport"
)

// ReplicationExp regenerates the replication experiment table.
func ReplicationExp(o Options) (*Table, error) {
	const nodes = 2
	accounts := 8
	dur := o.duration()

	t := &Table{
		Title:   "Replication: mutation propagation latency and steady-state submit overhead",
		Columns: []string{"substrate", "create mean", "peer-visible mean", "local ev/s (repl on)", "local ev/s (repl off)"},
		Notes: []string{
			"create: one runtime context creation = one CAS-append to the log + local apply (store round trips on mesh substrates)",
			"peer-visible: create on node 1 → ownership replica of node 2 contains the ID (one notify frame + tail apply)",
			fmt.Sprintf("%d nodes, bank workload, %v per throughput point", nodes, dur),
			"expected shape: local submit throughput identical with replication on and off — submits never touch the log or the mesh",
		},
	}
	for _, mode := range []string{"local-store", "inmem-mesh", "tcp-mesh"} {
		o.progressf("replication: %s\n", mode)
		row, err := replicationModeRow(o, mode, nodes, accounts, dur)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mode, err)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// replicationCreates measures the mean latency of n replicated context
// creations (owner picks the placement) and, when peer is non-nil, the mean
// time until each created ID is visible in peer's ownership replica.
func replicationCreates(rt *core.Runtime, peer *core.Runtime, owner ownership.ID, n int) (create, visible time.Duration, err error) {
	var totalCreate, totalVisible time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		id, err := rt.CreateContext("Account", owner)
		if err != nil {
			return 0, 0, err
		}
		totalCreate += time.Since(t0)
		if peer != nil {
			// Park between probes instead of spinning: on a single-CPU box
			// a Gosched spin keeps every P busy, so the netpoller only runs
			// from sysmon (~20ms) and the measurement would report the
			// scheduler artifact, not the propagation path.
			for !peer.Graph().Contains(id) {
				time.Sleep(20 * time.Microsecond)
			}
			totalVisible += time.Since(t0)
		}
	}
	return totalCreate / time.Duration(n), totalVisible / time.Duration(n), nil
}

// replicationModeRow measures one substrate, with replication on and then a
// fresh identical deployment with it off (throughput baseline).
func replicationModeRow(o Options, mode string, nodes, accounts int, dur time.Duration) ([]string, error) {
	creates := 60
	if o.Quick {
		creates = 20
	}

	measure := func(replicate bool) (createMean, visibleMean time.Duration, localRate float64, err error) {
		if mode == "local-store" {
			// Single process, plane over the local store: the append round
			// pays no mesh, and there is no peer to propagate to.
			cl := cluster.New(transport.NewSim(transport.SimConfig{}))
			for i := 0; i < nodes; i++ {
				cl.AddServer(cluster.M3Large)
			}
			s := node.BankSchema()
			if err := s.Freeze(); err != nil {
				return 0, 0, 0, err
			}
			cfg := core.DefaultConfig()
			cfg.ChargeClientHops = false
			rt, err := core.New(s, ownership.NewGraph(), cl, cfg)
			if err != nil {
				return 0, 0, 0, err
			}
			defer rt.Close()
			top, err := node.BuildBank(rt, accounts, 1000)
			if err != nil {
				return 0, 0, 0, err
			}
			if replicate {
				p := replication.New(rt, cloudstore.NewReplicated(0, cloudstore.New()), replication.Config{Origin: 1})
				rt.SetReplicator(p)
				if err := p.Start(); err != nil {
					return 0, 0, 0, err
				}
				defer p.Close()
			}
			var cm time.Duration
			if replicate {
				// Creates only on the replicated pass, matching the mesh
				// branches: the on/off throughput comparison runs against
				// identical topologies.
				cm, _, err = replicationCreates(rt, nil, top.Banks[0], creates)
				if err != nil {
					return 0, 0, 0, err
				}
			}
			rate, _, err := meshMeasure(rt.Submit, top.Accounts[0], dur)
			return cm, 0, rate, err
		}
		var mesh transport.Mesh
		if mode == "inmem-mesh" {
			mesh = transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
		} else {
			mesh = transport.NewTCPMesh()
		}
		d, err := node.Deploy(mesh, node.Topology{
			Nodes:           nodes,
			AccountsPerBank: accounts,
			Replicate:       replicate,
		})
		if err != nil {
			return 0, 0, 0, err
		}
		defer d.Close()
		if err := d.WaitReady(10 * time.Second); err != nil {
			return 0, 0, 0, err
		}
		n1, n2 := d.Nodes[0], d.Nodes[1]
		if replicate {
			// Create on node 1, owned by node 1's bank; node 2's replica
			// learns it via the notify frame.
			createMean, visibleMean, err = replicationCreates(n1.Runtime(), n2.Runtime(), d.Top.Banks[0], creates)
			if err != nil {
				return 0, 0, 0, err
			}
		}
		localRate, _, err = meshMeasure(n1.Submit, d.Top.Accounts[0], dur)
		return createMean, visibleMean, localRate, err
	}

	createMean, visibleMean, rateOn, err := measure(true)
	if err != nil {
		return nil, err
	}
	_, _, rateOff, err := measure(false)
	if err != nil {
		return nil, err
	}
	visibleCell := "n/a (same process)"
	if mode != "local-store" {
		visibleCell = fmtMS(visibleMean)
	}
	return []string{mode, fmtMS(createMean), visibleCell, fmtK(rateOn), fmtK(rateOff)}, nil
}
