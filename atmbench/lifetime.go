package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/chip"
	"repro/internal/fleet"
	"repro/internal/fsp"
	"repro/internal/lifetime"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sentinel"
	"repro/internal/silicon"
	"repro/internal/tuning"
)

// lifetimeWorkload ages generated servers with the margin sentinel on,
// as one fleet campaign.
type lifetimeWorkload struct {
	cfg      config
	pins     pinSet
	campaign *fleet.Campaign

	profiles []*silicon.ServerProfile
	// deployed holds the servers fine-tuned on day one, the
	// chip probe's fixture; client talks to a loopback FSP session on
	// the fine-tuned reference machine, the sentinel's telemetry path.
	deployed []*chip.Machine
	ref      *chip.Machine
	client   *fsp.Client

	walls []fleet.Result // the last traced pass's job results
	runS  float64
}

func newLifetime(cfg config, seed uint64, pins *pins) *lifetimeWorkload {
	return &lifetimeWorkload{cfg: cfg, pins: pins.Lifetime, campaign: lifetimeCampaign(cfg, seed)}
}

// lifetimeCampaign is the workload's input: generated silicon seeds
// 1 … cfg.lifetimeServers aged cfg.lifetimeYears each, the jobs in an
// order drawn from the workload seed. Every seed ages the same servers,
// so every seed does the same work.
func lifetimeCampaign(cfg config, seed uint64) *fleet.Campaign {
	c := fleet.LifetimeSweep(cfg.lifetimeServers, 1, cfg.lifetimeYears, false)
	jobs := make([]fleet.Job, len(c.Jobs))
	for i, j := range rng.New(seed).Split("atmbench/lifetime").Perm(len(jobs)) {
		jobs[i] = c.Jobs[j]
	}
	c.Jobs = jobs
	return c
}

func lifetimeKey(siliconSeed uint64) string { return fmt.Sprintf("silicon=%d", siliconSeed) }

func (w *lifetimeWorkload) close() error { return nil }

// setup manufactures and fine-tunes the servers and builds
// the FSP fixture: the reference machine, fine-tuned, behind a
// loopback session.
func (w *lifetimeWorkload) setup() error {
	w.profiles, w.deployed = w.profiles[:0], w.deployed[:0]
	for _, j := range w.campaign.Jobs {
		p, err := silicon.Generate(j.SiliconSeed, silicon.GenerateOptions{})
		if err != nil {
			return err
		}
		mm, err := chip.New(p, chip.Options{})
		if err != nil {
			return err
		}
		if _, err := tuning.Deploy(mm, tuning.Options{Seed: j.Seed}); err != nil {
			return err
		}
		w.profiles = append(w.profiles, p)
		w.deployed = append(w.deployed, mm)
	}
	w.ref = chip.NewReference()
	if _, err := tuning.Deploy(w.ref, tuning.Options{}); err != nil {
		return err
	}
	w.client = fsp.NewClient(fsp.NewLoopback(fsp.NewSession(fsp.NewController(w.ref))), fsp.ClientOptions{})
	return nil
}

func (w *lifetimeWorkload) pass(tr *tracer) (passStats, error) {
	var ps passStats
	opts := fleet.Options{Workers: w.cfg.workers}
	if tr != nil {
		opts.Clock = newClock()
	}
	var fres *fleet.CampaignResult
	if err := tr.do("fleet", "fleet.Run", func() error {
		start := now()
		var err error
		fres, err = fleet.Run(w.campaign, opts)
		ps.took = start.since()
		return err
	}); err != nil {
		return ps, err
	}
	if tr != nil {
		w.walls = fres.Results
		w.runS = ps.took.wall.Seconds()
	}
	for i, r := range fres.Results {
		ps.ops++
		key := lifetimeKey(w.campaign.Jobs[i].SiliconSeed)
		var err error
		if r.Err != "" {
			err = fmt.Errorf("%s", r.Err)
			ps.failed++
		}
		if m := w.pins.check(key, r.Payload, err); m != "" {
			if err == nil {
				ps.failed++
			}
			ps.mismatches = append(ps.mismatches, m)
			continue
		}
		if err == nil {
			ps.items += float64(w.cfg.lifetimeYears) // server-years
		}
	}
	return ps, nil
}

// probe re-runs each server through lifetime.Run with a metrics
// registry attached (sentinel and trial counters), replays the
// sentinel's margins polling on the reference loopback session, and
// times the sentinel's detector and the chip calls on the fixture.
func (w *lifetimeWorkload) probe(tr *tracer, m layerMetrics) error {
	setFleetMetrics(m, &fleet.CampaignResult{Results: w.walls}, w.runS, w.cfg.workers)
	reg := obs.NewRegistry()
	var epochs, unsafe int
	for i, j := range w.campaign.Jobs {
		var res *lifetime.Result
		if err := tr.do("lifetime", "lifetime.Run", func() error {
			var err error
			res, err = lifetime.Run(w.profiles[i], lifetime.Options{Years: j.Years, Seed: j.Seed, Obs: reg})
			return err
		}); err != nil {
			return err
		}
		epochs += res.Epochs
		if !res.Safe {
			unsafe++
		}
	}
	m["lifetime.epochs"] = float64(epochs)
	m["lifetime.unsafe_servers"] = float64(unsafe)
	m["chip.trials"] = float64(reg.Counter("lifetime_trials_total").Value())
	m["sentinel.alarms"] = float64(reg.Counter("sentinel_alarms_total").Value())
	var actions int64
	for a := sentinel.ActionStepBack; a <= sentinel.ActionQuarantine; a++ {
		actions += reg.Counter("sentinel_actions_total", "action", a.String()).Value()
	}
	m["sentinel.actions"] = float64(actions)

	// The sentinel samples every core's margin once per epoch through
	// its operator client: replay one server's worth of those polls.
	polls := epochs / len(w.campaign.Jobs)
	before := w.client.Stats().Commands
	if err := tr.do("fsp", "fsp.Client.Margins", func() error {
		for i := 0; i < polls; i++ {
			if _, err := w.client.Margins(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	cmds := w.client.Stats().Commands - before
	perCmd := tr.total("fsp.Client.Margins").Seconds() / float64(cmds)
	m["fsp.commands"] = float64(cmds)
	m["fsp.exec_us"] = perCmd * 1e6
	var busy float64
	for _, r := range w.walls {
		busy += float64(r.WallNS) / 1e9
	}
	// Share of the campaign's job time the sentinel's polling costs,
	// estimated from outside: one margins round trip per epoch.
	m["fsp.share_of_jobs"] = float64(epochs) * perCmd / busy

	labels := make([]string, 0, 16)
	for _, c := range w.ref.AllCores() {
		labels = append(labels, c.Profile.Label)
	}
	snt := sentinel.New(sentinel.Config{}, labels, nopActuator{})
	d, err := timeLoop(tr, "sentinel", "sentinel.Sentinel.Observe", 100*time.Millisecond, func(i int) error {
		snt.Observe(i%len(labels), 6)
		return nil
	})
	if err != nil {
		return err
	}
	m["sentinel.observe_ns"] = float64(d.Nanoseconds())
	return probeChip(tr, m, w.deployed[0])
}

// nopActuator lets the detector probe run without a machine; a
// healthy margin never escalates to it.
type nopActuator struct{}

func (nopActuator) StepBack(string) (int, error)    { return 0, nil }
func (nopActuator) Retune(string) (int, error)      { return 0, nil }
func (nopActuator) Static(string) error             { return nil }
func (nopActuator) Quarantine(string, string) error { return nil }

// pinLifetime pins each server's job payload.
func pinLifetime(cfg config, set pinSet) error {
	n := cfg.lifetimeServers
	fres, err := fleet.Run(fleet.LifetimeSweep(n, 1, cfg.lifetimeYears, false), fleet.Options{Workers: cfg.workers})
	if err != nil {
		return err
	}
	for i, r := range fres.Results {
		var err error
		if r.Err != "" {
			err = fmt.Errorf("%s", r.Err)
		}
		set[lifetimeKey(uint64(i+1))] = pinOf(r.Payload, err)
	}
	fmt.Fprintf(os.Stderr, "pinned %d lifetime servers\n", n)
	return nil
}
