package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/emanager"
	"aeon/internal/game"
	"aeon/internal/migration"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
	"aeon/internal/workload"
)

// Fig8 regenerates Figure 8: overall throughput over time while different
// numbers of Room contexts (1 MB each) migrate concurrently. Per § 6.3, 20
// servers host one Room each; we migrate {1, 8, 12} rooms at once mid-run
// and record the events/s time series.
func Fig8(o Options) (*Table, error) {
	servers := 20
	migrateCounts := []int{1, 8, 12}
	runFor := 16 * time.Second
	migrateAt := 6 * time.Second
	window := time.Second
	pad := 1 << 20 // 1 MB contexts
	if o.Quick {
		servers = 6
		migrateCounts = []int{1, 3}
		runFor = 6 * time.Second
		migrateAt = 2 * time.Second
		window = 500 * time.Millisecond
	}

	t := &Table{
		Title:   "Figure 8: throughput while migrating N contexts (events/s per window; migration starts mid-run)",
		Columns: []string{"t"},
		Notes: []string{
			"expected shape: a mild throughput dip during the migration window, deeper as more contexts move, recovering afterwards",
			fmt.Sprintf("migration of 1MB Room contexts begins at t=%v", migrateAt),
		},
	}
	var series [][]string
	for _, n := range migrateCounts {
		t.Columns = append(t.Columns, fmt.Sprintf("%d contexts", n))
		o.progressf("fig8: migrating %d contexts\n", n)

		cfg := game.DefaultConfig()
		cfg.Rooms = servers
		cfg.PlayersPerRoom = 4
		cfg.SharedItemsPerRoom = 2
		cfg.ActionCost = 100 * time.Microsecond
		cfg.RoomStatePad = pad

		net := transport.NewSim(transport.DefaultSimConfig())
		cl := cluster.New(net)
		for i := 0; i < servers; i++ {
			cl.AddServer(cluster.M1Small)
		}
		app, err := game.BuildAEON(cl, cfg, false)
		if err != nil {
			return nil, err
		}
		mcfg := emanager.DefaultConfig()
		mcfg.MovableClasses = []string{"Room"}
		mgr := emanager.New(app.Runtime(), cloudstore.NewReplicated(0, cloudstore.New(cloudstore.WithLatency(time.Millisecond))), mcfg)

		// Background load with per-window throughput accounting.
		type runOut struct {
			res    workload.Result
			series []float64
		}
		done := make(chan runOut, 1)
		go func() {
			res, ts := workload.RunClosedLoopSeries(app.DoOp, 4*servers, 0, runFor, window, o.seed())
			var rates []float64
			for _, p := range ts.Points() {
				rates = append(rates, p.Rate)
			}
			done <- runOut{res: res, series: rates}
		}()

		// Fire the migrations mid-run: move the first n rooms (and their
		// subtrees) to the next server over.
		time.Sleep(migrateAt)
		rooms := app.Rooms()
		dir := app.Runtime().Directory()
		var wg sync.WaitGroup
		for i := 0; i < n && i < len(rooms); i++ {
			from, _ := dir.Locate(rooms[i])
			to := cl.Servers()[(i+1)%len(cl.Servers())].ID()
			if to == from {
				to = cl.Servers()[(i+2)%len(cl.Servers())].ID()
			}
			wg.Add(1)
			go func(room ownership.ID, to cluster.ServerID) {
				defer wg.Done()
				_ = mgr.MigrateGroup(room, to)
			}(rooms[i], to)
		}
		wg.Wait()
		out := <-done
		app.Close()
		if out.res.Errors > 0 {
			return nil, fmt.Errorf("fig8 n=%d: %d op errors", n, out.res.Errors)
		}
		col := make([]string, 0, len(out.series))
		for _, r := range out.series {
			col = append(col, fmtK(r))
		}
		series = append(series, col)
	}

	maxLen := 0
	for _, s := range series {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	for w := 0; w < maxLen; w++ {
		row := []string{fmt.Sprintf("%.1fs", (time.Duration(w) * window).Seconds())}
		for _, s := range series {
			row = append(row, seriesCell(s, w))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig9 regenerates Figure 9: maximum eManager migration throughput per
// instance type and context size (1 KB and 1 MB), by migrating a context
// back and forth between two servers as fast as the protocol allows.
func Fig9(o Options) (*Table, error) {
	profiles := []cluster.Profile{cluster.M1Large, cluster.M1Medium, cluster.M1Small}
	sizes := []struct {
		name string
		pad  int
	}{
		{"1KB", 1 << 10},
		{"1MB", 1 << 20},
	}
	t := &Table{
		Title:   "Figure 9: max migration throughput on eManager (contexts/s)",
		Columns: []string{"instance", "1KB", "1MB"},
		Notes: []string{
			"paper: m1.large 90/40, m1.medium 60/25, m1.small 40/20 contexts/s",
		},
	}
	dur := o.duration()
	if !o.Quick && dur < 2*time.Second {
		dur = 2 * time.Second
	}
	for _, p := range profiles {
		row := []string{p.Name}
		for _, size := range sizes {
			o.progressf("fig9: %s %s\n", p.Name, size.name)
			cfg := game.DefaultConfig()
			cfg.Rooms = 1
			cfg.PlayersPerRoom = 0
			cfg.SharedItemsPerRoom = 0
			cfg.RoomStatePad = size.pad

			net := transport.NewSim(transport.DefaultSimConfig())
			cl := cluster.New(net)
			s1 := cl.AddServer(p)
			s2 := cl.AddServer(p)
			app, err := game.BuildAEON(cl, cfg, false)
			if err != nil {
				return nil, err
			}
			mcfg := emanager.DefaultConfig()
			mcfg.Delta = time.Millisecond
			mcfg.ProtocolWork = 1500 * time.Microsecond
			mgr := emanager.New(app.Runtime(),
				cloudstore.NewReplicated(0, cloudstore.New(cloudstore.WithLatency(time.Millisecond))), mcfg)

			room := app.Rooms()[0]
			deadline := time.Now().Add(dur)
			count := 0
			cur, _ := app.Runtime().Directory().Locate(room)
			for time.Now().Before(deadline) {
				to := s1.ID()
				if cur == s1.ID() {
					to = s2.ID()
				}
				if err := mgr.Migrate(room, to); err != nil {
					app.Close()
					return nil, fmt.Errorf("fig9 %s/%s: %w", p.Name, size.name, err)
				}
				cur = to
				count++
			}
			app.Close()
			row = append(row, fmt.Sprintf("%.0f", float64(count)/dur.Seconds()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// MigrationBatch compares the serial per-member migration loop (the
// pre-engine behaviour: one protocol round, one stop/δ window, and one
// transfer sleep per group member, with the group split across servers
// until the loop finishes) against the batched group engine (one round, one
// window, one coalesced transfer per group). Events keep flowing against
// the group throughout each move, so the table reports both total
// group-move latency and event availability during the move.
func MigrationBatch(o Options) (*Table, error) {
	sizes := []int{4, 16, 48}
	pad := 128 << 10 // 128 KB per member
	if o.Quick {
		sizes = []int{4, 12}
		pad = 32 << 10
	}
	t := &Table{
		Title:   "Serial per-member vs batched group migration (group move latency and availability)",
		Columns: []string{"group size", "mode", "move latency", "stop/δ windows", "ev/s over window", "store writes"},
		Notes: []string{
			"serial = pre-engine behaviour: five-step protocol looped per member; batched = one protocol round per group",
			"events target the group root and a member throughout; ev/s is measured over the same fixed window (1.25× the serial move) for both modes = availability around the move",
			fmt.Sprintf("%d KB state per member; m1.small endpoints; 1ms cloud-store ops", pad>>10),
		},
	}

	for _, size := range sizes {
		// Availability is compared over a fixed observation window starting
		// at move start — the same wall-clock budget for both modes, sized
		// from the serial move's duration so it always contains the whole
		// move. Rating only the rate *during* each move would reward the
		// serial loop for dragging its degradation out 5-10× longer. Each
		// mode runs in a fresh world so neither inherits the other's
		// forwarding windows.
		var window time.Duration
		for _, mode := range []string{"serial", "batched"} {
			o.progressf("migration: size %d %s\n", size, mode)
			w, err := newMigrationWorld(size, pad)
			if err != nil {
				return nil, err
			}

			// Closed-loop traffic against the group for the whole window.
			var completed atomic.Int64
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := c; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := w.rt.Submit(w.root, "poke", w.members[1+i%(size-1)]); err == nil {
							completed.Add(1)
						}
					}
				}(c)
			}

			_, w0 := w.store.Stats()
			start := time.Now()
			if mode == "serial" {
				// The pre-engine loop: one full protocol round per member.
				for _, id := range w.members {
					if err := w.engine.Migrate(id, w.dst.ID()); err != nil {
						close(stop)
						w.rt.Close()
						return nil, fmt.Errorf("serial member %v: %w", id, err)
					}
				}
			} else {
				if err := w.engine.MigrateGroup(w.root, w.dst.ID()); err != nil {
					close(stop)
					w.rt.Close()
					return nil, fmt.Errorf("batched group: %w", err)
				}
			}
			dur := time.Since(start)
			if window == 0 {
				// Serial runs first and sets the shared window.
				window = dur * 5 / 4
			}
			if rest := window - time.Since(start); rest > 0 {
				time.Sleep(rest)
			}
			evWindow := completed.Load()
			close(stop)
			wg.Wait()
			_, w1 := w.store.Stats()

			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", size),
				mode,
				fmtMS(dur),
				fmt.Sprintf("%d", w.engine.StopWindows.Value()),
				fmtK(float64(evWindow) / window.Seconds()),
				fmt.Sprintf("%d", w1-w0),
			})
			w.rt.Close()
		}
	}
	return t, nil
}

// migrationWorld is one fresh runtime for a MigrationBatch measurement: a
// Room owning size-1 Items on the source server of a two-server cluster.
type migrationWorld struct {
	rt       *core.Runtime
	store    *cloudstore.Store
	engine   *migration.Engine
	src, dst *cluster.Server
	root     ownership.ID
	members  []ownership.ID
}

func newMigrationWorld(size, pad int) (*migrationWorld, error) {
	sch := schema.New()
	room := sch.MustDeclareClass("Room", func() any { return &padState{pad: pad} })
	item := sch.MustDeclareClass("Item", func() any { return &padState{pad: pad} })
	item.MustDeclareMethod("inc", func(call schema.Call, args []any) (any, error) {
		st := call.State().(*padState)
		st.n++
		return st.n, nil
	})
	room.MustDeclareMethod("poke", func(call schema.Call, args []any) (any, error) {
		// Touch one owned item, so a split group pays cross-server hops.
		return call.Sync(args[0].(ownership.ID), "inc")
	}, schema.MayCall("Item", "inc"))
	if err := sch.Freeze(); err != nil {
		return nil, err
	}

	net := transport.NewSim(transport.DefaultSimConfig())
	cl := cluster.New(net)
	src := cl.AddServer(cluster.M1Small)
	dst := cl.AddServer(cluster.M1Small)
	rt, err := core.New(sch, ownership.NewGraph(), cl, core.Config{
		MessageBytes:     256,
		ChargeClientHops: true,
		AcquireTimeout:   60 * time.Second,
		StalenessWindow:  100 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	store := cloudstore.New(cloudstore.WithLatency(time.Millisecond))
	engine := migration.NewEngine(rt, cloudstore.NewReplicated(0, store), migration.Config{
		Delta:        2 * time.Millisecond,
		ProtocolWork: 1500 * time.Microsecond,
	})
	root, err := rt.CreateContextOn(src.ID(), "Room")
	if err != nil {
		rt.Close()
		return nil, err
	}
	members := []ownership.ID{root}
	for i := 1; i < size; i++ {
		id, err := rt.CreateContext("Item", root)
		if err != nil {
			rt.Close()
			return nil, err
		}
		members = append(members, id)
	}
	return &migrationWorld{
		rt: rt, store: store, engine: engine,
		src: src, dst: dst, root: root, members: members,
	}, nil
}

// padState is a fixed-size member state for the migration experiment.
type padState struct {
	n   int
	pad int
}

func (s *padState) StateBytes() int { return 64 + s.pad }
