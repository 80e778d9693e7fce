package chip

import (
	"fmt"

	"repro/internal/units"
)

// Power capping is the other duty of the POWER7/7+ EnergyScale
// controller besides undervolting: hold a chip under an externally
// imposed power budget by stepping the DVFS ladder down. The paper's
// management layer effectively re-derives a per-QoS cap (Sec. VII-C,
// "total chip power under critical and co-running background workloads
// cannot exceed the calculated power budget"); this is the firmware
// mechanism that enforces such a cap chip-wide.

// CapResult reports the capping controller's operating point.
type CapResult struct {
	Chip string
	// CapW is the imposed budget.
	CapW units.Watt
	// ATMKept reports whether the full fine-tuned ATM configuration
	// already fit the budget (no throttling applied).
	ATMKept bool
	// PState is the chip-wide static p-state chosen when throttling was
	// needed (0 when ATMKept).
	PState units.MHz
	// Power is the resulting chip power.
	Power units.Watt
	// Met reports whether the budget was achieved; false means even the
	// lowest p-state exceeds the cap (the controller would have to
	// power-gate, which is left to the scheduler).
	Met bool
}

// SolveCapped finds the fastest chip-wide clocking that keeps the chip
// at or under capW with the current workloads: first the cores' present
// (ATM) configuration, then the static DVFS ladder from the top down.
// The machine is left in the chosen configuration; callers that only
// want the answer should snapshot and restore around the call.
func (m *Machine) SolveCapped(chipLabel string, capW units.Watt) (CapResult, error) {
	c, err := m.chipByLabel(chipLabel)
	if err != nil {
		return CapResult{}, err
	}
	if capW <= 0 {
		return CapResult{}, fmt.Errorf("chip: non-positive power cap %v", capW)
	}
	res := CapResult{Chip: chipLabel, CapW: capW}

	st, err := m.solveChip(c)
	if err != nil {
		return CapResult{}, err
	}
	if st.Power <= capW {
		res.ATMKept = true
		res.Power = st.Power
		res.Met = true
		return res, nil
	}

	// Remember each core's clocking to restore only if nothing fits —
	// callers get the chosen throttled state otherwise.
	for i := len(PStates) - 1; i >= 0; i-- {
		ps := PStates[i]
		for _, core := range c.Cores {
			core.SetMode(ModeStatic)
			if err := core.SetPState(ps); err != nil {
				return CapResult{}, err
			}
		}
		st, err := m.solveChip(c)
		if err != nil {
			return CapResult{}, err
		}
		if st.Power <= capW {
			res.PState = ps
			res.Power = st.Power
			res.Met = true
			return res, nil
		}
		if i == 0 {
			res.PState = ps
			res.Power = st.Power
		}
	}
	// Even the floor exceeds the cap; report the floor honestly.
	return res, nil
}
