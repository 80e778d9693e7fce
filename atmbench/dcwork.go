package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/chip"
	"repro/internal/dc"
	"repro/internal/fleet"
	"repro/internal/guard"
	"repro/internal/manage"
	"repro/internal/platform"
	"repro/internal/tuning"
)

// dcWorkload runs dc.Run on one datacenter input. dc-intake provisions
// every node inside the timed region; dc-backlog serves intake from a
// provision cache warmed in set-up, so its timed region is the tick
// loop.
type dcWorkload struct {
	cfg    config
	o      dc.Options
	pins   pinSet
	cached bool

	dir     string // per-run temporary directory under the scratch dir
	setups  int
	fixture []dc.PlacerChip // the first cfg.placerNodes provisioned nodes

	last   *dc.Result // the last traced pass's result
	passes []float64  // traced dc.Run walls, seconds
}

func newDC(cfg config, o dc.Options, pins *pins, scratch string, cached bool) (*dcWorkload, error) {
	set := pins.DCIntake
	if cached {
		set = pins.DCBacklog
	}
	dir, err := os.MkdirTemp(scratch, "atmbench-dc-")
	if err != nil {
		return nil, err
	}
	return &dcWorkload{cfg: cfg, o: o, pins: set, cached: cached, dir: dir}, nil
}

func (w *dcWorkload) close() error { return os.RemoveAll(w.dir) }

// setup provisions the first cfg.placerNodes nodes — the placement
// fixture — and, for dc-backlog, warms a fresh provision cache with
// the whole campaign.
func (w *dcWorkload) setup() error {
	campaign := dc.Campaign(w.o)
	opts := fleet.Options{Workers: w.o.Workers}
	if w.cached {
		if w.o.CacheDir != "" {
			if err := os.RemoveAll(w.o.CacheDir); err != nil {
				return err
			}
		}
		w.setups++
		w.o.CacheDir = filepath.Join(w.dir, fmt.Sprintf("cache-%d", w.setups))
		opts.CacheDir = w.o.CacheDir
	}
	sub := &fleet.Campaign{Name: campaign.Name, Jobs: campaign.Jobs}
	if len(sub.Jobs) > w.cfg.placerNodes && !w.cached {
		sub = &fleet.Campaign{Name: campaign.Name + "-fixture", Jobs: campaign.Jobs[:w.cfg.placerNodes]}
	}
	fres, err := fleet.Run(sub, opts)
	if err != nil {
		return err
	}
	n := len(fres.Results)
	if n > w.cfg.placerNodes {
		n = w.cfg.placerNodes
	}
	w.fixture = w.fixture[:0]
	for i, r := range fres.Results[:n] {
		w.fixture = append(w.fixture, placerChip(sub.Jobs[i].ID, r))
	}
	return nil
}

// placerChip is the scheduler's view of one provisioned node, built
// the way the dc intake builds it: a failed or fully quarantined node
// is quarantined behind a tripped breaker.
func placerChip(id string, r fleet.Result) dc.PlacerChip {
	pc := dc.PlacerChip{ID: id, Breaker: guard.NewBreaker(guard.BreakerOptions{
		Name: "dc/" + id, FailureThreshold: 1, OpenTicks: 1 << 40,
	})}
	prov, err := r.DCProvision()
	var view platform.NodeView
	if err == nil {
		view, err = prov.Provision.View()
	}
	if err != nil || !view.Live {
		pc.Quarantined = true
		pc.Breaker.Failure()
		return pc
	}
	pc.IdleW, pc.SpanW = view.IdleW, view.SpanW
	for _, c := range view.Cores {
		pc.Cores = append(pc.Cores, dc.PlacerCore{Label: c.Label, Quarantined: c.Quarantined, Slope: c.Slope, Intercept: c.Intercept})
	}
	return pc
}

// runDC runs one campaign, inside a span when tr is non-nil, and
// returns its canonical JSON, checked against the invariants, and the
// time dc.Run alone took. A panic becomes an error.
func runDC(tr *tracer, o dc.Options) ([]byte, *dc.Result, elapsed, error) {
	var res *dc.Result
	var took elapsed
	err := tr.do("dc", "dc.Run", func() error {
		return guarded(func() error {
			start := now()
			var err error
			res, err = dc.Run(o)
			took = start.since()
			return err
		})
	})
	if err != nil {
		return nil, nil, took, err
	}
	var out bytes.Buffer
	if err := res.WriteJSON(&out); err != nil {
		return nil, nil, took, err
	}
	if bad := checkDC(o, res); len(bad) > 0 {
		return out.Bytes(), res, took, fmt.Errorf("invariants: %v", bad)
	}
	return out.Bytes(), res, took, nil
}

// checkDC checks the result's invariants: every generated tenant is at
// the horizon exactly one of completed, running, queued or shed, in
// agreement with the summary counts and the last timeline row; and a
// fault-free campaign never violates its budget caps.
func checkDC(o dc.Options, res *dc.Result) []string {
	var bad []string
	want := o.Tenants
	if want == 0 {
		want = 2 * o.Racks * o.ChassisPerRack * o.ChipsPerChassis
	}
	var completed, running, queued, shed, unplaced int
	for _, t := range res.Tenants {
		switch {
		case t.Completed && (t.Shed || !t.Placed):
			bad = append(bad, fmt.Sprintf("tenant %d completed but shed=%v placed=%v", t.ID, t.Shed, t.Placed))
		case t.Completed:
			completed++
		case t.Shed:
			shed++
		case t.Placed:
			running++
		default:
			queued++
		}
		if !t.Placed {
			unplaced++
		}
	}
	if len(res.Tenants) != want {
		bad = append(bad, fmt.Sprintf("%d tenant outcomes, generated %d", len(res.Tenants), want))
	}
	if completed != res.Placement.Completed || unplaced != res.Placement.Unplaced {
		bad = append(bad, fmt.Sprintf("outcomes count %d completed / %d unplaced, summary says %d / %d",
			completed, unplaced, res.Placement.Completed, res.Placement.Unplaced))
	}
	if res.Ops != nil && shed != res.Ops.Shed {
		bad = append(bad, fmt.Sprintf("%d shed outcomes, ops summary says %d", shed, res.Ops.Shed))
	}
	if n := len(res.Timeline); n > 0 {
		last := res.Timeline[n-1]
		if last.Running != running || last.Queued != queued+shed {
			bad = append(bad, fmt.Sprintf("horizon row has %d running / %d queued, outcomes give %d / %d",
				last.Running, last.Queued, running, queued+shed))
		}
	}
	if o.OpsFaultProfile == "" && o.FaultProfile == "" && res.Budget.Violations != 0 {
		bad = append(bad, fmt.Sprintf("%d budget violations on a fault-free campaign", res.Budget.Violations))
	}
	return bad
}

func (w *dcWorkload) pass(tr *tracer) (passStats, error) {
	ps := passStats{ops: 1}
	out, res, took, err := runDC(tr, w.o)
	ps.took = took
	if tr != nil {
		w.passes = append(w.passes, took.wall.Seconds())
		w.last = res
	}
	if err != nil {
		ps.failed = 1
		ps.mismatches = append(ps.mismatches, fmt.Sprintf("%s: %v", dcKey(w.o), err))
		return ps, nil
	}
	if m := w.pins.check(dcKey(w.o), out, nil); m != "" {
		ps.failed = 1
		ps.mismatches = append(ps.mismatches, m)
	}
	if w.cached {
		ps.items = float64(len(res.Timeline)) // simulated ticks
	} else {
		ps.items = float64(len(res.Chips)) // nodes provisioned
	}
	return ps, nil
}

// probe splits the traced dc.Run walls into intake and simulation,
// re-runs the intake pieces on sampled node specs, and times the
// placement, breaker, budget and ops-draw calls on the provisioned
// fixture.
func (w *dcWorkload) probe(tr *tracer, m layerMetrics) error {
	if w.last == nil {
		return fmt.Errorf("no traced dc result")
	}
	res := w.last
	p := res.Placement
	m["dc.placed"] = float64(p.Placed)
	m["dc.deferrals"] = float64(p.Deferrals)
	m["dc.completed"] = float64(p.Completed)
	m["dc.unplaced"] = float64(p.Unplaced)
	m["dc.place_attempts"] = float64(p.Placed + p.Deferrals)
	m["dc.place_hit_ratio"] = float64(p.Placed) / float64(p.Placed+p.Deferrals)
	m["dc.violations"] = float64(res.Budget.Violations)
	m["guard.breaker_rejected"] = float64(p.BreakerRejected)
	if res.Ops != nil {
		m["dc.migrations"] = float64(res.Ops.Migrations)
		m["dc.shed"] = float64(res.Ops.Shed)
	}

	// Intake: the same fleet campaign dc.Run starts, with the same cache
	// setting, timed per job through the fleet clock hook.
	campaign := dc.Campaign(w.o)
	var fres *fleet.CampaignResult
	clock := newClock()
	if err := tr.do("fleet", "fleet.Run", func() error {
		var err error
		fres, err = fleet.Run(campaign, fleet.Options{Workers: w.o.Workers, CacheDir: w.o.CacheDir, Clock: clock})
		return err
	}); err != nil {
		return err
	}
	intake := tr.total("fleet.Run").Seconds()
	setFleetMetrics(m, fres, intake, w.o.Workers)
	sim := median(w.passes) - intake
	m["dc.intake_s"] = intake
	m["dc.sim_s"] = sim
	m["dc.tick_us"] = sim / float64(len(res.Timeline)) * 1e6

	if err := w.probeIntake(tr, m, campaign); err != nil {
		return err
	}
	if err := w.probePlacement(tr, m); err != nil {
		return err
	}
	// Outside-in estimate of the tick loop's placement cost: every
	// deferral is a failed scan of a saturated pool, every placement a
	// scan of a pool with free cores.
	placeS := (float64(p.Deferrals)*m["dc.place_saturated_ns"] + float64(p.Placed)*m["dc.place_free_ns"]) / 1e9
	m["dc.place_share_of_sim"] = placeS / sim
	// The breaker check inside those scans: one Allow per live chip per
	// attempt.
	live := 0
	for _, c := range res.Chips {
		if !c.Quarantined {
			live++
		}
	}
	allowS := float64(p.Placed+p.Deferrals) * float64(live) * m["guard.allow_ns"] / 1e9
	m["guard.allow_share_of_sim"] = allowS / sim
	return nil
}

// setFleetMetrics records a campaign's job count, run time, per-job
// wall quantiles (cache-served jobs excluded) and pool overhead.
func setFleetMetrics(m layerMetrics, fres *fleet.CampaignResult, runS float64, workers int) {
	var walls []float64
	var busy float64
	for _, r := range fres.Results {
		if r.Cached {
			continue
		}
		s := float64(r.WallNS) / 1e9
		walls = append(walls, s)
		busy += s
	}
	if workers > len(fres.Results) {
		workers = len(fres.Results)
	}
	m["fleet.jobs"] = float64(len(fres.Results))
	m["fleet.run_s"] = runS
	m["fleet.job_p50_ms"] = quantile(walls, 0.50) * 1e3
	m["fleet.job_p95_ms"] = quantile(walls, 0.95) * 1e3
	m["fleet.overhead_frac"] = 1 - busy/(float64(workers)*runS)
}

// newClock is the wall-clock hook the fleet timestamps jobs with.
func newClock() func() int64 {
	origin := time.Now()
	return func() int64 { return int64(time.Since(origin)) }
}

// probeIntake re-runs the intake recipe piece by piece on fresh builds
// of sampled node specs: platform.Build, tuning.Deploy, one
// manage.CalibrateFreqPredictor per live core and Machine.Solve on the
// deployed machine; then platform.ProvisionServer on another fresh
// build of the same spec, to show how much of provisioning the pieces
// account for.
func (w *dcWorkload) probeIntake(tr *tracer, m layerMetrics, campaign *fleet.Campaign) error {
	n := w.cfg.sampleNodes
	if n > len(campaign.Jobs) {
		n = len(campaign.Jobs)
	}
	var trials int64
	for s := 0; s < n; s++ {
		j := campaign.Jobs[s*len(campaign.Jobs)/n]
		spec := platform.Spec{SiliconSeed: j.SiliconSeed, Chips: j.Chips, FaultProfile: j.FaultProfile, FaultSeed: j.FaultSeed}
		var srv *platform.Server
		if err := tr.do("platform", "platform.Build", func() error {
			var err error
			srv, err = platform.Build(spec)
			return err
		}); err != nil {
			return err
		}
		mm := srv.Machine
		mm.SetTrialObserver(func(string, string, int, chip.TrialResult, error) { trials++ })
		var dep *tuning.Deployment
		if err := tr.do("tuning", "tuning.Deploy", func() error {
			var err error
			opts := deployOptions(j.Seed)
			opts.Rollback = j.Rollback
			dep, err = tuning.Deploy(mm, opts)
			return err
		}); err != nil {
			return err
		}
		for _, cfg := range dep.Configs {
			if cfg.Quarantined {
				continue
			}
			if err := tr.do("manage", "manage.CalibrateFreqPredictor", func() error {
				_, err := manage.CalibrateFreqPredictor(mm, cfg.Core)
				return err
			}); err != nil {
				return err
			}
		}
		if s == 0 {
			if err := probeChip(tr, m, mm); err != nil {
				return err
			}
		}
		if err := tr.do("platform", "platform.Build", func() error {
			var err error
			srv, err = platform.Build(spec)
			return err
		}); err != nil {
			return err
		}
		if err := tr.do("platform", "platform.ProvisionServer", func() error {
			_, err := platform.ProvisionServer(srv, platform.ProvisionOptions{Seed: j.Seed, Rollback: j.Rollback})
			return err
		}); err != nil {
			return err
		}
	}
	build := mean(tr.durations("platform.Build"))
	deploy := mean(tr.durations("tuning.Deploy"))
	cal := tr.durations("manage.CalibrateFreqPredictor")
	prov := mean(tr.durations("platform.ProvisionServer"))
	calPerNode := mean(cal) * float64(len(cal)) / float64(n)
	solveS := m["chip.solve_us"] / 1e6
	m["chip.trials"] = float64(trials)
	m["platform.build_ms"] = build * 1e3
	m["tuning.deploy_ms"] = deploy * 1e3
	m["manage.calibrate_ms"] = mean(cal) * 1e3
	m["manage.calibrate_calls"] = float64(len(cal))
	m["platform.provision_ms"] = prov * 1e3
	// ProvisionServer's own work: what deploy, calibration and the two
	// power-envelope solves per chip do not explain.
	m["platform.provision_self_ms"] = (prov - deploy - calPerNode - 2*solveS) * 1e3
	m["platform.deploy_calibrate_share"] = (deploy + calPerNode) / prov
	return nil
}

// probePlacement times the placement scan, the breaker check and the
// budget step on the provisioned fixture, and the ops-schedule draw on
// the workload's topology.
func (w *dcWorkload) probePlacement(tr *tracer, m layerMetrics) error {
	allow := make([]float64, len(w.fixture))
	for i := range allow {
		allow[i] = 1e9
	}
	const cdyn = 0.7
	free := dc.NewPlacer(append([]dc.PlacerChip(nil), w.fixture...))
	d, err := timeLoop(tr, "dc", "dc.Placer.Place:free", 100*time.Millisecond, func(int) error {
		if ci, cj, _, ok := free.Place(cdyn, allow); ok {
			free.Release(ci, cj, cdyn)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["dc.place_free_ns"] = float64(d.Nanoseconds())

	full := dc.NewPlacer(append([]dc.PlacerChip(nil), w.fixture...))
	for {
		if _, _, _, ok := full.Place(cdyn, allow); !ok {
			break
		}
	}
	d, err = timeLoop(tr, "dc", "dc.Placer.Place:saturated", 100*time.Millisecond, func(int) error {
		full.Place(cdyn, allow)
		return nil
	})
	if err != nil {
		return err
	}
	m["dc.place_saturated_ns"] = float64(d.Nanoseconds())

	brk := guard.NewBreaker(guard.BreakerOptions{Name: "probe", FailureThreshold: 1, OpenTicks: 1 << 40})
	d, err = timeLoop(tr, "guard", "guard.Breaker.Allow", 100*time.Millisecond, func(int) error {
		brk.Allow()
		return nil
	})
	if err != nil {
		return err
	}
	m["guard.allow_ns"] = float64(d.Nanoseconds())

	tree, req, meas := budgetFixture(w.o, w.fixture)
	d, err = timeLoop(tr, "dc", "dc.BudgetTree.Step", 100*time.Millisecond, func(int) error {
		tree.Apportion(req)
		tree.Regulate(meas)
		return nil
	})
	if err != nil {
		return err
	}
	m["dc.budget_step_ns"] = float64(d.Nanoseconds())

	if w.o.OpsFaultProfile != "" {
		p, err := dc.ParseOpsProfile(w.o.OpsFaultProfile)
		if err != nil {
			return err
		}
		d, err = timeLoop(tr, "dc", "dc.DrawOps", 100*time.Millisecond, func(int) error {
			dc.DrawOps(p, w.o.OpsFaultSeed, w.o, nil)
			return nil
		})
		if err != nil {
			return err
		}
		m["dc.ops_draw_us"] = d.Seconds() * 1e6
	}
	return nil
}

// budgetFixture builds a budget hierarchy over the fixture nodes, in
// the workload's chassis size, with caps derived from the provisioned
// envelopes the way dc derives them (92% of the hottest chip, 75% of
// a chassis' chip caps, 85% of a rack's chassis caps). Requests are
// the loaded envelopes, measurements half-loaded.
func budgetFixture(o dc.Options, chips []dc.PlacerChip) (*dc.BudgetTree, []float64, []float64) {
	perChassis := o.ChipsPerChassis
	chassis := len(chips) / perChassis
	racks, perRack := 1, chassis
	if chassis > o.ChassisPerRack {
		racks, perRack = chassis/o.ChassisPerRack, o.ChassisPerRack
	}
	n := racks * perRack * perChassis
	idle := make([]float64, n)
	req := make([]float64, n)
	meas := make([]float64, n)
	maxLoaded := 0.0
	for i := range idle {
		c := chips[i]
		loaded := c.IdleW + c.SpanW*float64(len(c.Cores))
		idle[i], req[i], meas[i] = c.IdleW, loaded, (c.IdleW+loaded)/2
		if loaded > maxLoaded {
			maxLoaded = loaded
		}
	}
	chipCap := 0.92 * maxLoaded
	chassisCap := 0.75 * float64(perChassis) * chipCap
	rackCap := 0.85 * float64(perRack) * chassisCap
	return dc.NewBudgetTree(racks, perRack, perChassis, rackCap, chassisCap, chipCap, 0.5, idle), req, meas
}

// deployOptions are the intake-pass tuning options ProvisionServer
// uses (platform.ProvisionOptions defaults).
func deployOptions(seed uint64) tuning.Options {
	return tuning.Options{Seed: seed, Passes: 1, RunsPerConfig: 2}
}
