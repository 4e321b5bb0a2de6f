package radio

import (
	"fmt"

	"uavdc/internal/canon"
)

// Canon maps an uplink model to its canonical representation — the single
// radio→canon translation every cache-key adapter (core, simulate, the
// facade) shares. nil is the paper's constant network bandwidth.
func Canon(m Model) (canon.Radio, error) {
	switch r := m.(type) {
	case nil:
		return canon.Radio{Kind: canon.RadioNone}, nil
	case Shannon:
		return canon.Radio{
			Kind:        canon.RadioShannon,
			RefRate:     r.RefRate.F(),
			RefDist:     r.RefDist.F(),
			RefSNR:      r.RefSNR,
			PathLossExp: r.PathLossExp,
		}, nil
	default:
		return canon.Radio{}, fmt.Errorf("radio: model %T has no canonical form", m)
	}
}
