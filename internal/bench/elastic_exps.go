package bench

import (
	"fmt"
	"time"

	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/emanager"
	"aeon/internal/game"
	"aeon/internal/transport"
	"aeon/internal/workload"
)

// elasticSetup describes one Figure 7 configuration.
type elasticSetup struct {
	name    string
	servers int  // initial servers
	elastic bool // eManager-driven scaling
}

func fig7Setups(o Options) []elasticSetup {
	if o.Quick {
		return []elasticSetup{
			{"Elastic", 4, true},
			{"4-server", 4, false},
			{"12-server", 12, false},
		}
	}
	return []elasticSetup{
		{"Elastic", 8, true},
		{"8-server", 8, false},
		{"16-server", 16, false},
		{"22-server", 22, false},
		{"32-server", 32, false},
	}
}

// fig7Run is one elasticity run's outcome.
type fig7Run struct {
	setup      elasticSetup
	result     *workload.RampResult
	serverHist []serverSample
	avgServers float64
	pctOverSLA float64
}

type serverSample struct {
	offset  time.Duration
	servers int
}

// runFig7 executes the elasticity experiment of § 6.2: the game on
// m1.small servers, an SLA of 10 ms, and a normally distributed client ramp
// peaking at 128 clients.
func runFig7(o Options) ([]fig7Run, time.Duration, error) {
	const sla = 10 * time.Millisecond
	maxServers := 32
	rooms := 32
	duration := 60 * time.Second
	window := time.Second
	ramp := workload.Ramp{Machines: 8, PeakPerMachine: 16, Duration: duration}
	if o.Quick {
		maxServers = 12
		rooms = 12
		duration = 12 * time.Second
		ramp = workload.Ramp{Machines: 4, PeakPerMachine: 12, Duration: duration}
		window = 500 * time.Millisecond
	}

	cfg := game.DefaultConfig()
	cfg.Rooms = rooms
	cfg.PlayersPerRoom = 4
	cfg.SharedItemsPerRoom = 2
	cfg.ActionCost = 100 * time.Microsecond
	cfg.Mix = game.OpMix{PrivateGoldPct: 70, InteractPct: 20, CountPct: 10}

	var runs []fig7Run
	for _, setup := range fig7Setups(o) {
		o.progressf("fig7: running %s setup\n", setup.name)
		net := transport.NewSim(transport.DefaultSimConfig())
		cl := cluster.New(net)
		initial := setup.servers
		for i := 0; i < initial; i++ {
			cl.AddServer(cluster.M1Small)
		}
		app, err := game.BuildAEON(cl, cfg, false)
		if err != nil {
			return nil, 0, fmt.Errorf("fig7 %s: %w", setup.name, err)
		}

		var mgr *emanager.Manager
		if setup.elastic {
			mcfg := emanager.DefaultConfig()
			mcfg.MovableClasses = []string{"Room"}
			mcfg.PollInterval = window
			mgr = emanager.New(app.Runtime(), cloudstore.NewReplicated(0, cloudstore.New(cloudstore.WithLatency(time.Millisecond))), mcfg)
			mgr.AddPolicy(&emanager.SLAPolicy{
				Target:     sla,
				Profile:    cluster.M1Small,
				MinServers: initial,
				Cooldown:   window,
				MaxStep:    4,
			})
			mgr.AddConstraint(emanager.MaxServers(maxServers))
			mgr.Start()
		}

		// Sample the server count alongside the ramp.
		samples := make(chan serverSample, 1024)
		stopSampling := make(chan struct{})
		samplerDone := make(chan struct{})
		go func() {
			defer close(samplerDone)
			begin := time.Now()
			ticker := time.NewTicker(window)
			defer ticker.Stop()
			for {
				select {
				case <-stopSampling:
					return
				case now := <-ticker.C:
					samples <- serverSample{offset: now.Sub(begin), servers: cl.Size()}
				}
			}
		}()

		res := workload.RunRamp(app.DoOp, ramp, window, o.seed())
		close(stopSampling)
		<-samplerDone
		close(samples)
		if mgr != nil {
			mgr.Stop()
		}
		app.Close()

		run := fig7Run{setup: setup, result: res}
		var sum int
		for s := range samples {
			run.serverHist = append(run.serverHist, s)
			sum += s.servers
		}
		if len(run.serverHist) > 0 {
			run.avgServers = float64(sum) / float64(len(run.serverHist))
		} else {
			run.avgServers = float64(initial)
		}
		run.pctOverSLA = res.Hist.FractionAbove(sla) * 100
		runs = append(runs, run)
	}
	return runs, window, nil
}

// Fig7 regenerates Figures 7a (average request latency over time) and 7b
// (server count over time) for the elastic and static setups.
func Fig7(o Options) ([]*Table, error) {
	runs, window, err := runFig7(o)
	if err != nil {
		return nil, err
	}

	latT := &Table{
		Title:   "Figure 7a: elastic vs static — mean request latency per window (ms)",
		Columns: []string{"t"},
		Notes: []string{
			"expected shape: small static setups blow past the 10ms SLA at the client peak; the 32-server and elastic setups stay under it",
		},
	}
	srvT := &Table{
		Title:   "Figure 7b: elastic vs static — server count per window",
		Columns: []string{"t"},
		Notes: []string{
			"expected shape: the elastic setup grows toward the peak and shrinks after; static lines are flat",
		},
	}
	clT := &Table{
		Title:   "Figure 7a (overlay): active clients per window",
		Columns: []string{"t", "clients"},
	}

	for _, r := range runs {
		latT.Columns = append(latT.Columns, r.setup.name)
		srvT.Columns = append(srvT.Columns, r.setup.name)
	}

	// Build rows window by window using the longest series.
	maxLen := 0
	latSeries := make([][]string, len(runs))
	srvSeries := make([][]string, len(runs))
	for i, r := range runs {
		for _, p := range r.result.LatencySeries.Points() {
			latSeries[i] = append(latSeries[i], fmt.Sprintf("%.2f", p.Mean))
		}
		for _, s := range r.serverHist {
			srvSeries[i] = append(srvSeries[i], fmt.Sprintf("%d", s.servers))
		}
		if len(latSeries[i]) > maxLen {
			maxLen = len(latSeries[i])
		}
		if len(srvSeries[i]) > maxLen {
			maxLen = len(srvSeries[i])
		}
	}
	for w := 0; w < maxLen; w++ {
		ts := fmt.Sprintf("%.0fs", (time.Duration(w) * window).Seconds())
		latRow := []string{ts}
		srvRow := []string{ts}
		for i := range runs {
			latRow = append(latRow, seriesCell(latSeries[i], w))
			srvRow = append(srvRow, seriesCell(srvSeries[i], w))
		}
		latT.Rows = append(latT.Rows, latRow)
		srvT.Rows = append(srvT.Rows, srvRow)
	}

	if len(runs) > 0 {
		for _, p := range runs[0].result.ClientSeries.Points() {
			clT.Rows = append(clT.Rows, []string{
				fmt.Sprintf("%.0fs", p.Offset.Seconds()),
				fmt.Sprintf("%.0f", p.Mean),
			})
		}
	}
	return []*Table{latT, srvT, clT}, nil
}

func seriesCell(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "-"
}

// Table1 regenerates Table 1: SLA violations and server cost per setup.
func Table1(o Options) (*Table, error) {
	runs, _, err := runFig7(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Table 1: performance and cost (SLA 10ms)",
		Columns: []string{"Setup", "% requests > 10ms", "Avg. servers"},
		Notes: []string{
			"expected shape: the largest static setup and the elastic setup meet the SLA; the elastic one does so with substantially fewer servers on average",
		},
	}
	for _, r := range runs {
		t.Rows = append(t.Rows, []string{
			r.setup.name,
			fmt.Sprintf("%.1f%%", r.pctOverSLA),
			fmt.Sprintf("%.1f", r.avgServers),
		})
	}
	return t, nil
}
