package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/manage"
	"repro/internal/rng"
	"repro/internal/silicon"
	profiles "repro/internal/workload"
)

// artifactIDs are the 14 paper and 11 extension artifacts in suite
// order.
var artifactIDs = []string{
	"fig1", "fig2", "fig4b", "fig5", "fig7", "table1", "fig8", "fig9",
	"fig10", "fig11", "fig12a", "fig12b", "table2", "fig14",
	"ext-undervolt", "ext-montecarlo", "ext-ablation-loadline",
	"ext-ablation-noise", "ext-ablation-trials", "ext-scheduler",
	"ext-cpm-prediction", "ext-governors", "ext-droop-sync",
	"ext-cpm-sites", "ext-cross-chip",
}

// paperWorkload regenerates every artifact through
// core.Suite.RunExperiment on the reference server and on consecutive
// generated silicon seeds.
type paperWorkload struct {
	cfg      config
	silicons []uint64 // 0 = the paper-calibrated reference server
	pins     pinSet

	profiles []*silicon.ServerProfile
	ref      *core.Suite // deployed reference suite, the probe fixture

	// trials counts retry-wrapped trials on the traced passes' suites.
	trials int64
}

func newPaper(cfg config, seed uint64, pins *pins) *paperWorkload {
	return &paperWorkload{cfg: cfg, silicons: paperSilicons(cfg, seed), pins: pins.Paper}
}

// paperSilicons is the workload's input: the reference server and the
// generated silicon seeds 1 … cfg.paperSilicons, in an order drawn
// from the workload seed. Every seed regenerates the same artifacts,
// so every seed does the same work and meets the same known defects;
// the order checks that the suites do not depend on one another.
func paperSilicons(cfg config, seed uint64) []uint64 {
	perm := rng.New(seed).Split("atmbench/paper").Perm(cfg.paperSilicons + 1)
	out := make([]uint64, len(perm))
	for i, s := range perm {
		out[i] = uint64(s)
	}
	return out
}

func paperKey(silicon uint64, id string) string { return fmt.Sprintf("s%d/%s", silicon, id) }

// setup manufactures the silicon profiles and builds the probe
// fixture: the reference suite with its characterization, deployment
// and calibrated manager.
func (p *paperWorkload) setup() error {
	p.profiles = p.profiles[:0]
	for _, s := range p.silicons {
		prof := silicon.Reference()
		if s != 0 {
			var err error
			if prof, err = silicon.Generate(s, silicon.GenerateOptions{}); err != nil {
				return err
			}
		}
		p.profiles = append(p.profiles, prof)
	}
	ref, err := core.NewReferenceSuite()
	if err != nil {
		return err
	}
	if _, err := ref.Manager(); err != nil {
		return err
	}
	p.ref = ref
	return nil
}

// suite builds a fresh suite over profile i; the traced pass counts its
// trials through the machine's trial observer.
func (p *paperWorkload) suite(i int, tr *tracer) (*core.Suite, error) {
	var s *core.Suite
	err := tr.do("core", "core.NewSuite", func() error {
		var err error
		s, err = core.NewSuite(core.SuiteOptions{Profile: p.profiles[i], FleetWorkers: p.cfg.workers})
		return err
	})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		s.M.SetTrialObserver(func(string, string, int, chip.TrialResult, error) { p.trials++ })
	}
	return s, nil
}

func (p *paperWorkload) pass(tr *tracer) (ps passStats, err error) {
	start := now()
	defer func() { ps.took = start.since() }()
	for i, sil := range p.silicons {
		s, err := p.suite(i, tr)
		if err != nil {
			return ps, err
		}
		if tr != nil {
			// Run the suite's shared stages first so their cost lands in
			// their own layers' spans instead of the first artifact that
			// needs them. Each stage is cached, so the pass does the same
			// work as an untraced one.
			if err := tr.do("charact", "core.Suite.Report", func() error { _, err := s.Report(); return err }); err != nil {
				return ps, err
			}
			if err := tr.do("tuning", "core.Suite.Deployment", func() error { _, err := s.Deployment(); return err }); err != nil {
				return ps, err
			}
		}
		for _, id := range artifactIDs {
			ps.ops++
			var text []byte
			err := tr.do("core", "core.Suite.RunExperiment:"+id, func() error {
				var err error
				text, err = renderArtifact(s, id)
				return err
			})
			if err != nil {
				ps.failed++
			}
			if m := p.pins.check(paperKey(sil, id), text, err); m != "" {
				if err == nil {
					ps.failed++
				}
				ps.mismatches = append(ps.mismatches, m)
			}
		}
		ps.items += float64(len(artifactIDs))
		if sil == 0 {
			if m := checkTableI(s); m != "" {
				ps.mismatches = append(ps.mismatches, m)
			}
		}
	}
	return ps, nil
}

// renderArtifact regenerates one artifact and renders its text, the
// output the pins cover. A panic becomes an error.
func renderArtifact(s *core.Suite, id string) ([]byte, error) {
	var text bytes.Buffer
	err := guarded(func() error {
		a, err := s.RunExperiment(id)
		if err != nil {
			return err
		}
		return a.Render(&text)
	})
	return text.Bytes(), err
}

// checkTableI requires the reference server's regenerated Table I to
// equal the paper's published limits in all 64 cells.
func checkTableI(s *core.Suite) string {
	rep, err := s.Report()
	if err != nil {
		return "table1 invariant: " + err.Error()
	}
	match, cells := 0, 0
	for _, row := range rep.TableI() {
		idle, ub, normal, worst, ok := silicon.ReferenceTableI(row.Core)
		if !ok {
			return "table1 invariant: no reference row for " + row.Core
		}
		for _, c := range [][2]int{{row.Idle, idle}, {row.UBench, ub}, {row.Normal, normal}, {row.Worst, worst}} {
			cells++
			if c[0] == c[1] {
				match++
			}
		}
	}
	if match != 64 || cells != 64 {
		return fmt.Sprintf("table1 invariant: %d/%d cells match the paper, want 64/64", match, cells)
	}
	return ""
}

// probe derives the core and stage metrics from the traced passes'
// spans and times the chip, manage and stage calls on fixtures.
func (p *paperWorkload) probe(tr *tracer, m layerMetrics) error {
	var all []float64
	for _, id := range artifactIDs {
		ds := tr.durations("core.Suite.RunExperiment:" + id)
		all = append(all, ds...)
		m["core."+id+"_ms"] = mean(ds) * 1e3
	}
	m["core.artifacts"] = float64(len(all))
	m["core.artifact_p50_ms"] = quantile(all, 0.50) * 1e3
	m["core.artifact_p95_ms"] = quantile(all, 0.95) * 1e3
	m["charact.characterize_ms"] = mean(tr.durations("core.Suite.Report")) * 1e3
	m["tuning.deploy_ms"] = mean(tr.durations("core.Suite.Deployment")) * 1e3
	m["chip.trials"] = float64(p.trials)

	// Probes on the deployed reference fixture.
	if err := probeChip(tr, m, p.ref.M); err != nil {
		return err
	}
	return probeCalibrate(tr, m, p.ref.M, liveCores(p.ref.M))
}

func (p *paperWorkload) close() error { return nil }

// liveCores lists the machine's ungated cores.
func liveCores(mm *chip.Machine) []string {
	var out []string
	for _, c := range mm.AllCores() {
		if !c.Gated() {
			out = append(out, c.Profile.Label)
		}
	}
	return out
}

// probeChip times Machine.Solve and RunTrial on a machine in its
// current state, restoring nothing: both calls leave the machine's
// configuration unchanged.
func probeChip(tr *tracer, m layerMetrics, mm *chip.Machine) error {
	solve, err := timeLoop(tr, "chip", "chip.Machine.Solve", 200*time.Millisecond, func(int) error {
		_, err := mm.Solve()
		return err
	})
	if err != nil {
		return err
	}
	m["chip.solve_us"] = solve.Seconds() * 1e6
	label := mm.AllCores()[0].Profile.Label
	src := rng.New(1)
	trial, err := timeLoop(tr, "chip", "chip.Machine.RunTrial", 200*time.Millisecond, func(i int) error {
		_, err := mm.RunTrial(label, profiles.X264, src.SplitIndex("trial", i))
		return err
	})
	if err != nil {
		return err
	}
	m["chip.trial_ns"] = float64(trial.Nanoseconds())
	return nil
}

// probeCalibrate times manage.CalibrateFreqPredictor once per core.
func probeCalibrate(tr *tracer, m layerMetrics, mm *chip.Machine, cores []string) error {
	for _, c := range cores {
		if err := tr.do("manage", "manage.CalibrateFreqPredictor", func() error {
			_, err := manage.CalibrateFreqPredictor(mm, c)
			return err
		}); err != nil {
			return err
		}
	}
	ds := tr.durations("manage.CalibrateFreqPredictor")
	m["manage.calibrate_ms"] = mean(ds) * 1e3
	m["manage.calibrate_calls"] = float64(len(ds))
	return nil
}

// pinPaper pins every artifact on the reference server and on every
// generated seed of the workload.
func pinPaper(cfg config, set pinSet) error {
	w := &paperWorkload{cfg: cfg, silicons: paperSilicons(cfg, 1)}
	if err := w.setup(); err != nil {
		return err
	}
	for i, sil := range w.silicons {
		s, err := w.suite(i, nil)
		if err != nil {
			return err
		}
		for _, id := range artifactIDs {
			text, err := renderArtifact(s, id)
			set[paperKey(sil, id)] = pinOf(text, err)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pinned known failure %s: %v\n", paperKey(sil, id), err)
			}
		}
		if sil == 0 {
			if m := checkTableI(s); m != "" {
				return fmt.Errorf("refusing to pin: %s", m)
			}
		}
	}
	return nil
}
