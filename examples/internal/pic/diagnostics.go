package pic

// DensityProfile bins a species' macro-particles onto the cell grid and
// returns physical densities per cell — the "plasma profiles" diagnostic
// behind BIT1's slow flag.
func (s *Sim) DensityProfile(sp *Species) []float64 {
	out := make([]float64, s.P.Cells)
	dx := s.dx()
	for _, x := range sp.X {
		i := int(x / dx)
		if i >= s.P.Cells {
			i = s.P.Cells - 1
		}
		out[i] += sp.Weight / dx
	}
	return out
}
