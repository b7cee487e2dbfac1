package analysis

import (
	"ixplight/internal/collector"
	"ixplight/internal/dictionary"
)

// Mix counts community instances by provenance and flavour for one
// snapshot family — the raw material of Fig. 1 (IXP-defined vs
// unknown) and Fig. 2 (standard vs extended vs large).
type Mix struct {
	// Standard community instances the IXP defines / does not define.
	DefinedStandard int
	UnknownStandard int
	// Extended and large instances, split the same way. An extended or
	// large community is IXP-defined when its administrator field is
	// the route server's ASN.
	DefinedExtended int
	UnknownExtended int
	DefinedLarge    int
	UnknownLarge    int
}

// Total returns all community instances.
func (m Mix) Total() int {
	return m.DefinedStandard + m.UnknownStandard +
		m.DefinedExtended + m.UnknownExtended +
		m.DefinedLarge + m.UnknownLarge
}

// Defined returns the IXP-defined instances (Fig. 1 numerator).
func (m Mix) Defined() int {
	return m.DefinedStandard + m.DefinedExtended + m.DefinedLarge
}

// DefinedShare is Fig. 1's per-bar fraction.
func (m Mix) DefinedShare() float64 { return ratio(m.Defined(), m.Total()) }

// StandardShare is Fig. 2's fraction: standard instances over all
// IXP-defined instances.
func (m Mix) StandardShare() float64 {
	return ratio(m.DefinedStandard, m.Defined())
}

// ExtendedShare and LargeShare complete Fig. 2.
func (m Mix) ExtendedShare() float64 { return ratio(m.DefinedExtended, m.Defined()) }

// LargeShare is the large-community slice of Fig. 2.
func (m Mix) LargeShare() float64 { return ratio(m.DefinedLarge, m.Defined()) }

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// ComputeMix tallies the Fig. 1/2 mix for one family of a snapshot.
func ComputeMix(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool) Mix {
	return IndexFor(s, scheme).Mix(v6)
}

// ActionInfoSplit counts action vs informational instances among the
// IXP-defined standard communities — Fig. 3.
func ActionInfoSplit(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool) (action, info int) {
	return IndexFor(s, scheme).ActionInfoSplit(v6)
}

// ActionShare is Fig. 3's action fraction.
func ActionShare(s *collector.Snapshot, scheme *dictionary.Scheme, v6 bool) float64 {
	a, i := ActionInfoSplit(s, scheme, v6)
	return ratio(a, a+i)
}
