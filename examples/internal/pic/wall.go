package pic

// BIT1's home domain is the magnetised plasma-wall transition: particles
// that reach the ends of the 1D flux tube strike the divertor plates and
// are absorbed, and the code "can log particle and power fluxes to the
// wall with minor computational overhead" (§II). This file adds bounded-
// domain behaviour: absorbing walls at x=0 and x=L with per-species flux
// accounting, selected with Params.BoundedWalls.

// WallFlux accumulates one species' losses to one wall.
type WallFlux struct {
	Particles int64   // macro-particles absorbed
	Power     float64 // kinetic energy absorbed (J, weighted)
}

// WallStats tracks both walls for every species, indexed by species name.
type WallStats struct {
	Left  map[string]*WallFlux
	Right map[string]*WallFlux
}

func newWallStats() *WallStats {
	return &WallStats{Left: map[string]*WallFlux{}, Right: map[string]*WallFlux{}}
}

func (w *WallStats) flux(side map[string]*WallFlux, name string) *WallFlux {
	f := side[name]
	if f == nil {
		f = &WallFlux{}
		side[name] = f
	}
	return f
}

// PushParticlesBounded advances positions with absorbing walls instead of
// periodic wrap, recording wall fluxes. It replaces PushParticles when
// Params.BoundedWalls is set.
func (s *Sim) PushParticlesBounded() {
	if s.Walls == nil {
		s.Walls = newWallStats()
	}
	L := s.P.Length
	dt := s.P.Dt
	for _, sp := range s.Species {
		accel := s.P.UseFieldSolver && sp.Charge != 0
		qm := sp.Charge / sp.Mass
		for i := sp.N() - 1; i >= 0; i-- {
			if accel {
				sp.VX[i] += qm * s.fieldAt(sp.X[i]) * dt
			}
			x := sp.X[i] + sp.VX[i]*dt
			if x >= 0 && x < L {
				sp.X[i] = x
				continue
			}
			side := s.Walls.Left
			if x >= L {
				side = s.Walls.Right
			}
			f := s.Walls.flux(side, sp.Name)
			f.Particles++
			v2 := sp.VX[i]*sp.VX[i] + sp.VY[i]*sp.VY[i] + sp.VZ[i]*sp.VZ[i]
			f.Power += 0.5 * sp.Mass * v2 * sp.Weight
			sp.remove(i)
		}
	}
}
