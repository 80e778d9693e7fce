package chip

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/units"
	"repro/internal/workload"
)

// refSolveChip is the steady-state solver in its original per-core
// formulation: every core re-derives the voltage scale, its CPM settle
// guard and the chip's leakage on every iteration. It is the oracle the
// hoisted solver must reproduce bit for bit.
func refSolveChip(m *Machine, c *Chip) (ChipState, error) {
	p := m.profile.Params()
	v := p.VRef
	t := c.Thermal.SteadyTemp(60)
	var (
		freqs  = make([]units.MHz, len(c.Cores))
		powers = make([]units.Watt, len(c.Cores))
		total  units.Watt
	)
	for iter := 0; iter < solveMaxIter; iter++ {
		total = m.power.UncoreW
		for i, core := range c.Cores {
			var f units.MHz
			switch {
			case core.gated:
			case core.mode == ModeStatic:
				f = core.pstate
			case core.mode == ModeATM:
				f = refSettleFreq(m.profile.Params(), core.Monitor.SettleGuardPs(), v)
			default:
				return ChipState{}, errors.New("unknown mode")
			}
			freqs[i] = f
			powers[i] = refCorePower(m.power, core.work, f, v, c.Thermal.LeakageScale(t), core.gated)
			total += powers[i]
		}
		vNew := c.PDN.SteadyVoltage(total)
		tNew := c.Thermal.SteadyTemp(total)
		done := math.Abs(float64(vNew-v)) < solveTolV && math.Abs(float64(tNew-t)) < 1e-4
		v = units.Volt(0.5*float64(v) + 0.5*float64(vNew))
		t = units.Celsius(0.5*float64(t) + 0.5*float64(tNew))
		if done {
			break
		}
	}
	cs := ChipState{
		Label:    c.Profile.Label,
		Supply:   v,
		DCDrop:   c.PDN.VNom - v,
		Power:    total,
		TempC:    t,
		InBudget: c.Thermal.WithinEnvelope(total),
	}
	for i, core := range c.Cores {
		cs.Cores = append(cs.Cores, CoreState{
			Label:     core.Profile.Label,
			Mode:      core.mode,
			Reduction: core.Reduction(),
			Gated:     core.gated,
			Workload:  core.work.Name,
			Freq:      freqs[i],
			Power:     powers[i],
		})
	}
	return cs, nil
}

// refSettleFreq is the original silicon.Params.SettleFreq body.
func refSettleFreq(p silicon.Params, guard units.Picosecond, v units.Volt) units.MHz {
	if guard <= 0 {
		return p.FMaxHW
	}
	f := units.Picosecond(float64(guard) * p.Scale(v)).Frequency()
	return f.Clamp(0, p.FMaxHW)
}

// refCorePower is the original single-expression core power formula.
func refCorePower(pm PowerModel, w workload.Profile, f units.MHz, v units.Volt, leakScale float64, gated bool) units.Watt {
	vr := float64(v) / float64(pm.VRefForCdyn)
	leak := float64(pm.CoreLeakW) * leakScale * vr * vr * vr
	if gated {
		return units.Watt(leak * pm.GatedLeakFrac)
	}
	dyn := w.CdynRel * float64(pm.CdynMaxWPerGHz) * vr * vr * f.GHz()
	return units.Watt(leak + dyn)
}

// sameBits reports whether two floats are the identical bit pattern.
func sameBits[F ~float64](a, b F) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// diffChipState lists every field where got and want differ, comparing
// floats by bit pattern.
func diffChipState(got, want ChipState) []string {
	var out []string
	add := func(ok bool, field string) {
		if !ok {
			out = append(out, field)
		}
	}
	add(got.Label == want.Label, "Label")
	add(sameBits(got.Supply, want.Supply), "Supply")
	add(sameBits(got.DCDrop, want.DCDrop), "DCDrop")
	add(sameBits(got.Power, want.Power), "Power")
	add(sameBits(got.TempC, want.TempC), "TempC")
	add(got.InBudget == want.InBudget, "InBudget")
	if len(got.Cores) != len(want.Cores) {
		return append(out, "len(Cores)")
	}
	for i, g := range got.Cores {
		w := want.Cores[i]
		add(g.Label == w.Label, w.Label+".Label")
		add(g.Mode == w.Mode, w.Label+".Mode")
		add(g.Reduction == w.Reduction, w.Label+".Reduction")
		add(g.Gated == w.Gated, w.Label+".Gated")
		add(g.Workload == w.Workload, w.Label+".Workload")
		add(sameBits(g.Freq, w.Freq), w.Label+".Freq")
		add(sameBits(g.Power, w.Power), w.Label+".Power")
	}
	return out
}

// TestSolveMatchesPerCoreReference pins the hoisted solver to the
// per-core formulation bit for bit over generated silicon seeds 1–32.
// Every core steps through every legal CPM reduction while the rest of
// its configuration — ATM or static mode, p-state, gating and one of
// the four calibration-ladder workloads — is drawn per step.
func TestSolveMatchesPerCoreReference(t *testing.T) {
	loads := []workload.Profile{workload.Idle, workload.Stream, workload.Coremark, workload.Daxpy}
	var solves, static, gated int
	for seed := uint64(1); seed <= 32; seed++ {
		srv, err := silicon.Generate(seed, silicon.GenerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(srv, Options{})
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(seed).Split("solve-reference")
		maxRed := 0
		for _, core := range m.AllCores() {
			maxRed = max(maxRed, core.Profile.MaxReduction())
		}
		for r := 0; r <= maxRed; r++ {
			for _, core := range m.AllCores() {
				if err := core.Monitor.Program(min(r, core.Profile.MaxReduction())); err != nil {
					t.Fatal(err)
				}
				core.SetWorkload(loads[src.Intn(len(loads))])
				core.SetGated(src.Intn(8) == 0)
				core.SetMode(ModeATM)
				if src.Intn(4) == 0 {
					core.SetMode(ModeStatic)
				}
				if err := core.SetPState(PStates[src.Intn(len(PStates))]); err != nil {
					t.Fatal(err)
				}
			}
			st, err := m.Solve()
			if err != nil {
				t.Fatalf("seed %d reduction %d: %v", seed, r, err)
			}
			for i, c := range m.Chips {
				want, err := refSolveChip(m, c)
				if err != nil {
					t.Fatal(err)
				}
				if d := diffChipState(st.Chips[i], want); len(d) > 0 {
					t.Fatalf("seed %d reduction %d chip %s: solver differs from the per-core reference in %s",
						seed, r, c.Profile.Label, strings.Join(d, ", "))
				}
				for _, cs := range want.Cores {
					switch {
					case cs.Gated:
						gated++
					case cs.Mode == ModeStatic:
						static++
					}
				}
				solves++
			}
		}
	}
	if static == 0 || gated == 0 {
		t.Fatalf("sweep missed a case: %d static and %d gated core states", static, gated)
	}
	t.Logf("%d chip solves bit-identical (%d static, %d gated core states)", solves, static, gated)
}

// TestSolveChipMatchesSolve checks the single-chip entry point against
// the whole-machine solve and rejects unknown labels.
func TestSolveChipMatchesSolve(t *testing.T) {
	m := NewReference()
	for i, core := range m.AllCores() {
		if i%3 == 0 {
			core.SetWorkload(workload.Daxpy)
		}
	}
	st, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range st.Chips {
		got, err := m.SolveChip(want.Label)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffChipState(got, want); len(d) > 0 {
			t.Errorf("SolveChip(%s) differs from Solve in %s", want.Label, strings.Join(d, ", "))
		}
	}
	if _, err := m.SolveChip("P9"); err == nil {
		t.Error("unknown chip label accepted")
	}
}

// TestSolveReportsNonConvergence removes the fixed point — a heat sink
// so poor that leakage outruns it and the junction runs away — and
// checks that the solver names the chip, the iteration count and the
// residuals instead of returning the last iterate.
func TestSolveReportsNonConvergence(t *testing.T) {
	m := NewReference()
	c := m.Chips[1]
	c.Thermal.ResistanceCPerW *= 4
	for _, core := range c.Cores {
		core.SetWorkload(workload.Daxpy)
	}
	_, err := m.Solve()
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("Solve error = %v, want ErrNotConverged", err)
	}
	for _, want := range []string{"chip " + c.Profile.Label, "after 200 iterations", "|Δv|", "|Δt|"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if _, err := m.SolveChip(m.Chips[0].Profile.Label); err != nil {
		t.Errorf("healthy chip %s: %v", m.Chips[0].Profile.Label, err)
	}
}

// TestSolveRejectsUnknownMode keeps the mode check that moved out of
// the per-iteration loop: an ungated core in an unknown mode is an
// error, a gated one is not consulted.
func TestSolveRejectsUnknownMode(t *testing.T) {
	m := NewReference()
	core := m.AllCores()[3]
	core.SetMode(Mode(7))
	if _, err := m.Solve(); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Fatalf("Solve error = %v, want unknown-mode error", err)
	}
	core.SetGated(true)
	if _, err := m.Solve(); err != nil {
		t.Fatalf("gated core in unknown mode: %v", err)
	}
}
