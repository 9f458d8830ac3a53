package bench

// The `mesh` experiment measures what the distributed node runtime costs:
// event throughput and latency for local, remote (one mesh exchange), and
// stale-forwarded (two mesh exchanges) submits, across three substrates —
// the single-process baseline, N in-process nodes on the in-memory mesh,
// and N in-process nodes on real TCP loopback sockets. Recorded as
// BENCH_4.json.

import (
	"fmt"
	"time"

	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/emanager"
	"aeon/internal/node"
	"aeon/internal/ownership"
	"aeon/internal/transport"
)

// MeshExp regenerates the mesh experiment table.
func MeshExp(o Options) (*Table, error) {
	const nodes = 3
	accounts := 8
	dur := o.duration()

	t := &Table{
		Title:   "Mesh: event cost by placement — single process vs in-memory mesh vs TCP loopback",
		Columns: []string{"substrate", "local ev/s", "local mean", "remote ev/s", "remote mean", "forward ev/s", "forward mean"},
		Notes: []string{
			"local: event's group hosted by the submitting node; remote: hosted by a peer (one mesh exchange)",
			"forward: submitter's directory is stale after a migration, so the event pays submitter→old-host→new-host (two mesh exchanges)",
			fmt.Sprintf("%d nodes (1:1 node per server), bank workload, single closed-loop client, %v per point", nodes, dur),
			"expected shape: local ≈ single process on every substrate (no mesh on the path); remote pays the frame codec (+ sockets on TCP); forward ≈ 2× remote",
		},
	}

	for _, mode := range []string{"single-process", "inmem-mesh", "tcp-mesh"} {
		o.progressf("mesh: %s\n", mode)
		row, err := meshModeRow(o, mode, nodes, accounts, dur)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mode, err)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// meshMeasure drives one closed-loop client round-robin over targets.
func meshMeasure(submit node.SubmitFunc, targets []ownership.ID, dur time.Duration) (rate float64, mean time.Duration, err error) {
	var (
		ops   int
		total time.Duration
		start = time.Now()
	)
	for time.Since(start) < dur {
		t0 := time.Now()
		if _, err := submit(targets[ops%len(targets)], "deposit", 1); err != nil {
			return 0, 0, err
		}
		total += time.Since(t0)
		ops++
	}
	if ops == 0 {
		return 0, 0, fmt.Errorf("no operations completed")
	}
	return float64(ops) / time.Since(start).Seconds(), total / time.Duration(ops), nil
}

// meshModeRow measures one substrate.
func meshModeRow(o Options, mode string, nodes, accounts int, dur time.Duration) ([]string, error) {
	var (
		submit  node.SubmitFunc
		top     *node.BankTopology
		migrate func(root ownership.ID, to cluster.ServerID) error
		cleanup func()
	)
	switch mode {
	case "single-process":
		cl := cluster.New(transport.NewSim(transport.SimConfig{}))
		for i := 0; i < nodes; i++ {
			cl.AddServer(cluster.M3Large)
		}
		s := node.BankSchema()
		if err := s.Freeze(); err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.ChargeClientHops = false
		rt, err := core.New(s, ownership.NewGraph(), cl, cfg)
		if err != nil {
			return nil, err
		}
		top, err = node.BuildBank(rt, accounts, 1000)
		if err != nil {
			rt.Close()
			return nil, err
		}
		mgr := emanager.New(rt, cloudstore.NewReplicated(0, cloudstore.New()), emanager.DefaultConfig())
		submit = rt.Submit
		migrate = mgr.MigrateGroup
		cleanup = rt.Close
	case "inmem-mesh", "tcp-mesh":
		var mesh transport.Mesh
		if mode == "inmem-mesh" {
			mesh = transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
		} else {
			mesh = transport.NewTCPMesh()
		}
		d, err := node.Deploy(mesh, node.Topology{
			Nodes:           nodes,
			AccountsPerBank: accounts,
			// Keep the submitter's directory deliberately stale so the
			// forward measurement pays the two-exchange path on every call.
			NodeDefaults: &node.Config{NoPlacementLearning: true},
		})
		if err != nil {
			return nil, err
		}
		if err := d.WaitReady(10 * time.Second); err != nil {
			d.Close()
			return nil, err
		}
		n1 := d.Nodes[0]
		submit = n1.Submit
		top = d.Top
		migrate = func(root ownership.ID, to cluster.ServerID) error {
			// Commanded at the owning node, like a real deployment.
			host, _ := d.Nodes[2].Runtime().Directory().Locate(root)
			return n1.MigrateRemote(transport.NodeID(host), root, to)
		}
		cleanup = d.Close
	default:
		return nil, fmt.Errorf("unknown mode %q", mode)
	}
	defer cleanup()

	localRate, localMean, err := meshMeasure(submit, top.Accounts[0], dur)
	if err != nil {
		return nil, fmt.Errorf("local: %w", err)
	}
	remoteRate, remoteMean, err := meshMeasure(submit, top.Accounts[1], dur)
	if err != nil {
		return nil, fmt.Errorf("remote: %w", err)
	}
	// Open the forwarding path: bank 3's group moves server 3 → server 2,
	// but the submitter keeps routing to server 3 (stale directory).
	if err := migrate(top.Banks[2], 2); err != nil {
		return nil, fmt.Errorf("migrate: %w", err)
	}
	fwdRate, fwdMean, err := meshMeasure(submit, top.Accounts[2], dur)
	if err != nil {
		return nil, fmt.Errorf("forward: %w", err)
	}

	return []string{
		mode,
		fmtK(localRate), fmtMS(localMean),
		fmtK(remoteRate), fmtMS(remoteMean),
		fmtK(fwdRate), fmtMS(fwdMean),
	}, nil
}
