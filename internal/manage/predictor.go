// Package manage implements the paper's Sec. VII management layer for a
// fine-tuned ATM system: the per-core frequency predictor (Eq. 1), the
// per-application performance predictor (Fig. 12b), the CPM-configuration
// governors, and the scheduler/throttler that places critical
// applications on fast cores and holds total chip power under the budget
// their QoS demands (Fig. 13).
package manage

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/chip"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// FreqPredictor is one core's Eq. 1 model: the runtime average frequency
// as a linear function of total chip power,
//
//	f ≈ −k′·P + b,
//
// where b encodes the core's static CPM setting and k′·P the dynamic
// variation, dominated by the IR voltage drop on the shared delivery
// path. In practice each core stores its model and indexes it by the
// chip's total power during job scheduling (Sec. VII-B).
type FreqPredictor struct {
	Core string
	Fit  stats.LinearFit // x = chip power (W), y = frequency (MHz)
}

// Predict returns the core's expected frequency at total chip power p.
func (fp FreqPredictor) Predict(p units.Watt) units.MHz {
	return units.MHz(fp.Fit.Predict(float64(p)))
}

// PowerForFreq inverts the model: the total chip power at which the core
// runs at frequency f. The second return is false when the fitted slope
// is (degenerately) non-negative.
func (fp FreqPredictor) PowerForFreq(f units.MHz) (units.Watt, bool) {
	if fp.Fit.Slope >= 0 {
		return 0, false
	}
	return units.Watt((float64(f) - fp.Fit.Intercept) / fp.Fit.Slope), true
}

// MHzPerWatt returns the magnitude of the frequency-vs-power slope (the
// paper measures ≈2 MHz per watt).
func (fp FreqPredictor) MHzPerWatt() float64 { return -fp.Fit.Slope }

// CalibrateFreqPredictor fits a core's Eq. 1 model by sweeping the chip
// through load levels: the target core keeps its current (deployed) CPM
// configuration while the sibling cores step through increasing
// co-runner load, and each steady state contributes one (chip power,
// core frequency) sample.
//
// The machine's workload assignment is restored afterwards.
func CalibrateFreqPredictor(m *chip.Machine, label string) (FreqPredictor, error) {
	ch, err := m.ChipOf(label)
	if err != nil {
		return FreqPredictor{}, err
	}
	// Save and restore sibling state.
	type saved struct {
		w      workload.Profile
		mode   chip.Mode
		pstate units.MHz
	}
	before := make([]saved, len(ch.Cores))
	for i, c := range ch.Cores {
		before[i] = saved{c.Workload(), c.Mode(), c.PState()}
	}
	defer func() {
		for i, c := range ch.Cores {
			s := before[i]
			c.SetWorkload(s.w)
			c.SetMode(s.mode)
			if err := c.SetPState(s.pstate); err != nil {
				panic(err) // restoring a previously valid p-state cannot fail
			}
		}
	}()

	// Load ladder: idle → k stream co-runners → k daxpy co-runners.
	// Rungs that assign every core the same workload as an earlier rung
	// (all idle co-runners: every Idle rung and each load's n = 0 rung)
	// reuse that rung's steady state; chips share no electrical or
	// thermal path, so only the target chip is solved. The repeated
	// samples stay in the fit.
	loads := []workload.Profile{workload.Idle, workload.Stream, workload.Coremark, workload.Daxpy}
	nRungs := len(loads) * len(ch.Cores)
	var (
		rungs  = make([]ladderRung, 0, nRungs)
		xs     = make([]float64, 0, nRungs)
		ys     = make([]float64, 0, nRungs)
		assign = make([]workload.Profile, len(ch.Cores))
	)
	for _, load := range loads {
		for n := 0; n < len(ch.Cores); n++ {
			placed := 0
			for i, c := range ch.Cores {
				switch {
				case c.Profile.Label == label:
					assign[i] = workload.Coremark // keep the target core busy
				case placed < n:
					assign[i] = load
					placed++
				default:
					assign[i] = workload.Idle
				}
			}
			r, seen := findRung(rungs, assign)
			if !seen {
				for i, c := range ch.Cores {
					c.SetWorkload(assign[i])
				}
				cs, err := m.SolveChip(ch.Profile.Label)
				if err != nil {
					return FreqPredictor{}, err
				}
				core, err := cs.CoreState(label)
				if err != nil {
					return FreqPredictor{}, err
				}
				r = ladderRung{slices.Clone(assign), float64(cs.Power), float64(core.Freq)}
				rungs = append(rungs, r)
			}
			xs = append(xs, r.x)
			ys = append(ys, r.y)
		}
	}
	fit, err := stats.FitLinear(xs, ys)
	if err != nil {
		return FreqPredictor{}, fmt.Errorf("manage: freq predictor for %s: %w", label, err)
	}
	return FreqPredictor{Core: label, Fit: fit}, nil
}

// ladderRung is one solved rung of the Eq. 1 calibration ladder.
type ladderRung struct {
	assign []workload.Profile // per-core workloads, in chip core order
	x, y   float64            // chip power (W), target-core frequency (MHz)
}

// findRung returns the solved rung whose per-core assignment equals
// assign, comparing whole profiles rather than names.
func findRung(rungs []ladderRung, assign []workload.Profile) (ladderRung, bool) {
	for _, r := range rungs {
		if slices.Equal(r.assign, assign) {
			return r, true
		}
	}
	return ladderRung{}, false
}

// PerfPredictor is one application's Fig. 12b model: performance
// relative to the static-margin baseline as a linear function of core
// frequency. Memory-bound applications have shallow slopes.
type PerfPredictor struct {
	App string
	Fit stats.LinearFit // x = frequency (MHz), y = relative performance
}

// Predict returns the application's expected relative performance at
// frequency f.
func (pp PerfPredictor) Predict(f units.MHz) float64 {
	return pp.Fit.Predict(float64(f))
}

// FreqForPerf inverts the model: the core frequency needed to reach a
// target relative performance.
func (pp PerfPredictor) FreqForPerf(perf float64) (units.MHz, bool) {
	if pp.Fit.Slope <= 0 {
		return 0, false
	}
	return units.MHz((perf - pp.Fit.Intercept) / pp.Fit.Slope), true
}

// CalibratePerfPredictor fits an application's performance-vs-frequency
// line over the fine-tuned operating range by profiling the workload
// model at swept frequencies (on hardware this is a frequency-pinning
// profiling run per application; Sec. VII-C).
func CalibratePerfPredictor(app workload.Profile, base units.MHz) (PerfPredictor, error) {
	var xs, ys []float64
	for f := float64(base); f <= float64(base)*1.25; f += 50 {
		xs = append(xs, f)
		ys = append(ys, app.RelPerf(f, float64(base)))
	}
	fit, err := stats.FitLinear(xs, ys)
	if err != nil {
		return PerfPredictor{}, fmt.Errorf("manage: perf predictor for %s: %w", app.Name, err)
	}
	return PerfPredictor{App: app.Name, Fit: fit}, nil
}

// PredictorSet bundles the calibrated models the manager consults.
type PredictorSet struct {
	Freq map[string]FreqPredictor
	Perf map[string]PerfPredictor
	Base units.MHz
}

// CalibratePredictors fits the Eq. 1 model for every core of the
// machine and the performance model for every realistic workload.
func CalibratePredictors(m *chip.Machine) (*PredictorSet, error) {
	base := m.Profile().Params().FStatic
	ps := &PredictorSet{
		Freq: map[string]FreqPredictor{},
		Perf: map[string]PerfPredictor{},
		Base: base,
	}
	for _, core := range m.AllCores() {
		fp, err := CalibrateFreqPredictor(m, core.Profile.Label)
		if err != nil {
			return nil, err
		}
		ps.Freq[core.Profile.Label] = fp
	}
	for _, app := range workload.Realistic() {
		pp, err := CalibratePerfPredictor(app, base)
		if err != nil {
			return nil, err
		}
		ps.Perf[app.Name] = pp
	}
	return ps, nil
}

// CoresBySpeed returns the chip's core labels sorted by descending
// predicted frequency at the given chip power.
func (ps *PredictorSet) CoresBySpeed(labels []string, at units.Watt) []string {
	out := append([]string(nil), labels...)
	sort.Slice(out, func(i, j int) bool {
		fi := ps.Freq[out[i]].Predict(at)
		fj := ps.Freq[out[j]].Predict(at)
		//lint:ignore floatcmp comparator tie-break: exact inequality only routes to the secondary key, any consistent order is deterministic
		if fi != fj {
			return fi > fj
		}
		return out[i] < out[j]
	})
	return out
}
