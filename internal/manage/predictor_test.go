package manage

import (
	"math"
	"testing"

	"repro/internal/chip"
	"repro/internal/silicon"
	"repro/internal/stats"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// fullLadderFit is the Eq. 1 calibration without rung reuse: every one
// of the ladder's rungs solves the whole machine.
func fullLadderFit(t *testing.T, m *chip.Machine, label string) stats.LinearFit {
	t.Helper()
	ch, err := m.ChipOf(label)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]workload.Profile, len(ch.Cores))
	for i, c := range ch.Cores {
		before[i] = c.Workload()
	}
	defer func() {
		for i, c := range ch.Cores {
			c.SetWorkload(before[i])
		}
	}()
	var xs, ys []float64
	for _, load := range []workload.Profile{workload.Idle, workload.Stream, workload.Coremark, workload.Daxpy} {
		for n := 0; n < len(ch.Cores); n++ {
			placed := 0
			for _, c := range ch.Cores {
				switch {
				case c.Profile.Label == label:
					c.SetWorkload(workload.Coremark)
				case placed < n:
					c.SetWorkload(load)
					placed++
				default:
					c.SetWorkload(workload.Idle)
				}
			}
			st, err := m.Solve()
			if err != nil {
				t.Fatal(err)
			}
			cs, err := st.ChipState(ch.Profile.Label)
			if err != nil {
				t.Fatal(err)
			}
			core, err := st.CoreState(label)
			if err != nil {
				t.Fatal(err)
			}
			xs = append(xs, float64(cs.Power))
			ys = append(ys, float64(core.Freq))
		}
	}
	fit, err := stats.FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	return fit
}

// TestCalibrateFreqPredictorMatchesFullLadder: reusing repeated rungs
// and solving only the target chip leaves every fit bit-identical to
// the full 32-rung whole-machine ladder, on the deployed reference and
// on generated silicon, and restores the machine's workloads.
func TestCalibrateFreqPredictorMatchesFullLadder(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, seed := range []uint64{0, 3, 11} {
		srv := silicon.Reference()
		if seed > 0 {
			var err error
			if srv, err = silicon.Generate(seed, silicon.GenerateOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		m, err := chip.New(srv, chip.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tuning.Deploy(m, tuning.Options{Passes: 1}); err != nil {
			t.Fatal(err)
		}
		m.AllCores()[1].SetWorkload(workload.Stream)
		for _, core := range m.AllCores() {
			label := core.Profile.Label
			want := fullLadderFit(t, m, label)
			fp, err := CalibrateFreqPredictor(m, label)
			if err != nil {
				t.Fatal(err)
			}
			if !same(fp.Fit.Slope, want.Slope) || !same(fp.Fit.Intercept, want.Intercept) || !same(fp.Fit.R2, want.R2) {
				t.Fatalf("seed %d core %s: fit %+v, full ladder %+v", seed, label, fp.Fit, want)
			}
		}
		if got := m.AllCores()[1].Workload(); got != workload.Stream {
			t.Errorf("seed %d: calibration left core 1 running %s", seed, got.Name)
		}
	}
}
