package chip

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/silicon"
	"repro/internal/units"
)

// CoreState is one core's steady operating point.
type CoreState struct {
	Label     string
	Mode      Mode
	Reduction int
	Gated     bool
	Workload  string
	Freq      units.MHz
	Power     units.Watt
}

// ChipState is one processor's steady operating point.
type ChipState struct {
	Label    string
	Supply   units.Volt
	DCDrop   units.Volt
	Power    units.Watt
	TempC    units.Celsius
	InBudget bool // within the thermal envelope
	Cores    []CoreState
}

// State is the whole machine's operating point.
type State struct {
	Chips []ChipState
}

// CoreState returns the state entry for a core label.
func (s State) CoreState(label string) (CoreState, error) {
	for _, c := range s.Chips {
		for _, cs := range c.Cores {
			if cs.Label == label {
				return cs, nil
			}
		}
	}
	return CoreState{}, fmt.Errorf("chip: no core %q in state", label)
}

// CoreState returns the chip's state entry for a core label.
func (c ChipState) CoreState(label string) (CoreState, error) {
	for _, cs := range c.Cores {
		if cs.Label == label {
			return cs, nil
		}
	}
	return CoreState{}, fmt.Errorf("chip: no core %q in chip %s state", label, c.Label)
}

// ChipState returns the state entry for a chip label.
func (s State) ChipState(label string) (ChipState, error) {
	for _, c := range s.Chips {
		if c.Label == label {
			return c, nil
		}
	}
	return ChipState{}, fmt.Errorf("chip: no chip %q in state", label)
}

// solveOpts tunes the fixed-point iteration.
const (
	solveMaxIter = 200
	solveTolV    = 1e-7 // volts
	solveTolT    = 1e-4 // °C
)

// ErrNotConverged reports a steady-state solve that hit solveMaxIter
// without meeting its tolerances. The wrapped message names the chip,
// the iteration count and the final residuals.
var ErrNotConverged = errors.New("chip: steady-state solve did not converge")

// Solve finds the steady operating point of every chip: the fixed point
// of the frequency ↔ power ↔ voltage ↔ temperature loop.
//
// ATM cores settle at the frequency their CPM guard dictates under the
// shared supply; that frequency sets dynamic power; total power sets the
// DC drop through the loadline and the junction temperature through the
// thermal resistance; both feed back into frequency (voltage) and
// leakage (temperature). The loop is a contraction at sane operating
// points and converges in a handful of iterations; a chip that does not
// converge within solveMaxIter is an ErrNotConverged error, never a
// silently unconverged answer.
//
// The iteration is kept cheap by evaluating every term at the level it
// varies at:
//
//   - once per solve: each core's CPM settle guard (it depends on the
//     programmed reduction, not on voltage), its clocking mode, and one
//     copy of the silicon parameters;
//   - once per iteration: the alpha-power voltage scale Params.Scale(v),
//     vr = v/VRefForCdyn, and the per-core leakage
//     CoreLeakW·LeakageScale(t)·vr³ — the same for every core on a chip,
//     because all of them share the rail and the junction temperature;
//   - per core: only the settle frequency and the dynamic power.
//
// The result is bit-identical to evaluating every term per core: each
// hoisted value is the very float64 the per-core expression computed,
// and the per-core arithmetic keeps its operations in the same order
// (Go does not fuse multiply-adds on amd64, and explicit float64
// conversions forbid fusion elsewhere).
func (m *Machine) Solve() (State, error) {
	st := State{Chips: make([]ChipState, 0, len(m.Chips))}
	for _, c := range m.Chips {
		cs, err := m.solveChip(c)
		if err != nil {
			return State{}, err
		}
		st.Chips = append(st.Chips, cs)
	}
	return st, nil
}

// SolveChip finds the steady operating point of one chip. Chips share
// no electrical or thermal path, so this equals the chip's entry in
// Solve's State at a fraction of the cost.
func (m *Machine) SolveChip(label string) (ChipState, error) {
	c, err := m.chipByLabel(label)
	if err != nil {
		return ChipState{}, err
	}
	return m.solveChip(c)
}

// chipByLabel returns the chip with the given label.
func (m *Machine) chipByLabel(label string) (*Chip, error) {
	for _, c := range m.Chips {
		if c.Profile.Label == label {
			return c, nil
		}
	}
	return nil, fmt.Errorf("chip: no chip %q", label)
}

// solveCore is one core's solve invariants.
type solveCore struct {
	// atm marks a core whose clock follows the supply through its CPM
	// guard; the others run at fixed.
	atm   bool
	guard units.Picosecond // ATM settle guard, ps at VRef
	fixed units.MHz        // static p-state, or 0 for a gated core
	gated bool
	cdyn  float64 // the workload's CdynRel
}

// solveBufCores is the core count whose scratch space lives on the
// stack; larger chips allocate it.
const solveBufCores = 16

// fixedPoint is where the damped iteration stopped.
type fixedPoint struct {
	v         units.Volt
	t         units.Celsius
	total     units.Watt
	iters     int
	dv, dt    float64 // final |Δv| (V) and |Δt| (°C)
	converged bool
}

// solveChip runs the fixed point for one chip.
func (m *Machine) solveChip(c *Chip) (ChipState, error) {
	n := len(c.Cores)
	var (
		coreBuf  [solveBufCores]solveCore
		freqBuf  [solveBufCores]units.MHz
		powerBuf [solveBufCores]units.Watt
		cores    []solveCore
		freqs    []units.MHz
		powers   []units.Watt
	)
	if n <= solveBufCores {
		cores, freqs, powers = coreBuf[:n], freqBuf[:n], powerBuf[:n]
	} else {
		cores, freqs, powers = make([]solveCore, n), make([]units.MHz, n), make([]units.Watt, n)
	}
	for i, core := range c.Cores {
		sc, err := solveInvariants(core)
		if err != nil {
			return ChipState{}, err
		}
		cores[i] = sc
	}

	p := m.profile.Params()
	fp := m.settle(c, &p, cores, freqs, powers)
	if !fp.converged {
		return ChipState{}, fmt.Errorf("%w: chip %s after %d iterations, |Δv| = %.3g V, |Δt| = %.3g °C",
			ErrNotConverged, c.Profile.Label, fp.iters, fp.dv, fp.dt)
	}

	cs := ChipState{
		Label:    c.Profile.Label,
		Supply:   fp.v,
		DCDrop:   c.PDN.VNom - fp.v,
		Power:    fp.total,
		TempC:    fp.t,
		InBudget: c.Thermal.WithinEnvelope(fp.total),
		Cores:    make([]CoreState, n),
	}
	for i, core := range c.Cores {
		cs.Cores[i] = CoreState{
			Label:     core.Profile.Label,
			Mode:      core.mode,
			Reduction: core.Reduction(),
			Gated:     core.gated,
			Workload:  core.work.Name,
			Freq:      freqs[i],
			Power:     powers[i],
		}
	}
	return cs, nil
}

// solveInvariants captures what a solve needs of a core and does not
// change while the chip iterates. A gated core draws residual leakage
// whatever its mode; an ungated one must be in a known mode.
func solveInvariants(core *Core) (solveCore, error) {
	sc := solveCore{gated: core.gated, cdyn: core.work.CdynRel}
	if core.gated {
		return sc, nil
	}
	switch core.mode {
	case ModeStatic:
		// Static margin: the p-state frequency is guaranteed by the
		// static guardband regardless of load.
		sc.fixed = core.pstate
	case ModeATM:
		// ATM tunes frequency around the p-state: at the overclocking
		// setup's full voltage the settle point always sits above it,
		// and under the undervolting controller it is the quantity the
		// frequency-target constraint watches.
		sc.atm = true
		sc.guard = core.Monitor.SettleGuardPs()
	default:
		return solveCore{}, fmt.Errorf("chip: core %s in unknown mode %v", core.Profile.Label, core.mode)
	}
	return sc, nil
}

// settle iterates the damped fixed point from VRef and the 60 W junction
// temperature, filling each core's frequency and power at the last
// iterate. A NaN residual (a thermal runaway) never counts as converged.
//
//atm:hotpath
func (m *Machine) settle(c *Chip, p *silicon.Params, cores []solveCore,
	freqs []units.MHz, powers []units.Watt) fixedPoint {
	pm := &m.power
	fp := fixedPoint{v: p.VRef, t: c.Thermal.SteadyTemp(60)}
	for fp.iters < solveMaxIter {
		fp.iters++
		scale := p.Scale(fp.v)
		vr := pm.vrel(fp.v)
		leak := pm.leakW(c.Thermal.LeakageScale(fp.t), vr)
		fp.total = pm.UncoreW
		for i := range cores {
			sc := &cores[i]
			f := sc.fixed
			if sc.atm {
				f = silicon.SettleFreqScaled(sc.guard, scale, p.FMaxHW)
			}
			freqs[i] = f
			powers[i] = pm.coreW(leak, sc.cdyn, vr, f, sc.gated)
			fp.total += powers[i]
		}
		vNew := c.PDN.SteadyVoltage(fp.total)
		tNew := c.Thermal.SteadyTemp(fp.total)
		fp.dv = math.Abs(float64(vNew - fp.v))
		fp.dt = math.Abs(float64(tNew - fp.t))
		fp.converged = fp.dv < solveTolV && fp.dt < solveTolT
		// Light damping keeps the leakage/voltage double feedback
		// monotone even at extreme operating points.
		fp.v = units.Volt(0.5*float64(fp.v) + 0.5*float64(vNew))
		fp.t = units.Celsius(0.5*float64(fp.t) + 0.5*float64(tNew))
		if fp.converged {
			break
		}
	}
	return fp
}
