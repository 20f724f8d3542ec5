// Package pic implements the 1D3V electrostatic Particle-in-Cell
// Monte-Carlo kernel that BIT1 is built around: particles move in one
// spatial dimension with three velocity components through the five phases
// of the PIC cycle — charge deposition (particle-to-grid interpolation),
// density smoothing, a tridiagonal Poisson field solve, Monte-Carlo
// collision handling, and the particle push.
//
// The package also provides the paper's §III-C use case: an unbounded,
// unmagnetized plasma of electrons, D+ ions and D neutrals in which
// neutrals ionize against the electron background at rate coefficient R,
// so the neutral density obeys ∂n/∂t = −n·nₑ·R. That scenario does not
// exercise the field solver or smoother (as the paper notes), but both
// phases are implemented and tested for completeness.
package pic

import (
	"fmt"
	"math"

	"picmcio/internal/xrand"
)

// Physical constants (SI).
const (
	ElectronMass = 9.1093837015e-31
	ProtonMass   = 1.67262192369e-27
	DeuteronMass = 2 * ProtonMass // close enough for test plasmas
	ElementaryQ  = 1.602176634e-19
	Epsilon0     = 8.8541878128e-12
)

// Species is one particle population stored as a structure of arrays:
// position X (1D) and velocity components VX, VY, VZ (3V).
type Species struct {
	Name   string
	Mass   float64
	Charge float64
	Weight float64 // physical particles per macro-particle

	X  []float64
	VX []float64
	VY []float64
	VZ []float64
}

// N reports the number of macro-particles currently in the species.
func (s *Species) N() int { return len(s.X) }

// add appends one macro-particle.
func (s *Species) add(x, vx, vy, vz float64) {
	s.X = append(s.X, x)
	s.VX = append(s.VX, vx)
	s.VY = append(s.VY, vy)
	s.VZ = append(s.VZ, vz)
}

// remove deletes particle i by swapping in the last one (O(1), the
// memory-management trick of Tskhakaya et al. 2007).
func (s *Species) remove(i int) {
	last := len(s.X) - 1
	s.X[i], s.VX[i], s.VY[i], s.VZ[i] = s.X[last], s.VX[last], s.VY[last], s.VZ[last]
	s.X = s.X[:last]
	s.VX = s.VX[:last]
	s.VY = s.VY[:last]
	s.VZ = s.VZ[:last]
}

// KineticEnergy sums ½mv² over the species (per macro-particle weight).
func (s *Species) KineticEnergy() float64 {
	var e float64
	for i := range s.X {
		v2 := s.VX[i]*s.VX[i] + s.VY[i]*s.VY[i] + s.VZ[i]*s.VZ[i]
		e += 0.5 * s.Mass * v2
	}
	return e * s.Weight
}

// Params configures a simulation.
type Params struct {
	Cells  int     // grid cells
	Length float64 // domain length in metres
	Dt     float64 // time step in seconds
	Seed   uint64

	UseFieldSolver bool // enable Poisson solve + particle acceleration
	UseSmoother    bool // enable 1-2-1 density smoothing
	BoundedWalls   bool // absorbing walls (divertor plates) instead of periodic

	IonizationRate float64 // R in ∂n/∂t = −n·nₑ·R (m³/s)
}

// SpeciesSpec describes an initial population.
type SpeciesSpec struct {
	Name        string
	Mass        float64
	Charge      float64
	NParticles  int
	Density     float64 // physical m⁻³, sets the macro-particle weight
	Temperature float64 // eV
}

// Sim is one PIC MC simulation domain (one rank's slice, in BIT1 terms).
type Sim struct {
	P       Params
	Species []*Species

	Rho []float64 // charge density at nodes (Cells+1)
	Phi []float64 // potential at nodes
	E   []float64 // electric field at nodes

	Walls *WallStats // populated when BoundedWalls is set

	Step int
	rng  *xrand.RNG
}

// New builds a simulation with the given species loaded uniformly in
// space with Maxwellian velocities.
func New(p Params, specs []SpeciesSpec) (*Sim, error) {
	if p.Cells < 2 {
		return nil, fmt.Errorf("pic: need at least 2 cells")
	}
	if p.Length <= 0 || p.Dt <= 0 {
		return nil, fmt.Errorf("pic: length and dt must be positive")
	}
	s := &Sim{
		P:   p,
		Rho: make([]float64, p.Cells+1),
		Phi: make([]float64, p.Cells+1),
		E:   make([]float64, p.Cells+1),
		rng: xrand.New(p.Seed ^ 0x9e37),
	}
	for si, spec := range specs {
		if spec.NParticles < 0 {
			return nil, fmt.Errorf("pic: negative particle count for %s", spec.Name)
		}
		sp := &Species{Name: spec.Name, Mass: spec.Mass, Charge: spec.Charge}
		if spec.NParticles > 0 {
			sp.Weight = spec.Density * p.Length / float64(spec.NParticles)
		} else {
			sp.Weight = 1
		}
		vth := math.Sqrt(spec.Temperature * ElementaryQ / spec.Mass)
		r := s.rng.Split(uint64(si) + 1)
		sp.X = make([]float64, 0, spec.NParticles)
		for i := 0; i < spec.NParticles; i++ {
			sp.add(r.Float64()*p.Length, r.Maxwellian(vth), r.Maxwellian(vth), r.Maxwellian(vth))
		}
		s.Species = append(s.Species, sp)
	}
	return s, nil
}

// SpeciesByName finds a species.
func (s *Sim) SpeciesByName(name string) (*Species, bool) {
	for _, sp := range s.Species {
		if sp.Name == name {
			return sp, true
		}
	}
	return nil, false
}

// dx reports the cell size.
func (s *Sim) dx() float64 { return s.P.Length / float64(s.P.Cells) }

// DepositDensity performs cloud-in-cell (linear) charge deposition onto
// the grid nodes, phase 1 of the PIC cycle.
func (s *Sim) DepositDensity() {
	for i := range s.Rho {
		s.Rho[i] = 0
	}
	dx := s.dx()
	for _, sp := range s.Species {
		if sp.Charge == 0 {
			continue
		}
		qw := sp.Charge * sp.Weight / dx
		for _, x := range sp.X {
			c := x / dx
			i := int(c)
			if i >= s.P.Cells {
				i = s.P.Cells - 1
			}
			frac := c - float64(i)
			s.Rho[i] += qw * (1 - frac)
			s.Rho[i+1] += qw * frac
		}
	}
}

// SmoothDensity applies one pass of the binomial 1-2-1 filter to the
// charge density, phase 2 of the PIC cycle (suppresses grid-scale noise).
func (s *Sim) SmoothDensity() {
	n := len(s.Rho)
	prev := s.Rho[0]
	for i := 1; i < n-1; i++ {
		cur := s.Rho[i]
		s.Rho[i] = 0.25*prev + 0.5*cur + 0.25*s.Rho[i+1]
		prev = cur
	}
}

// SolveTridiagonal solves a tridiagonal system (Thomas algorithm) with
// sub-diagonal a, diagonal b, super-diagonal c and right-hand side d.
// All slices must have equal length; a[0] and c[n-1] are ignored.
// The solution overwrites d, which is also returned.
func SolveTridiagonal(a, b, c, d []float64) ([]float64, error) {
	n := len(b)
	if len(a) != n || len(c) != n || len(d) != n {
		return nil, fmt.Errorf("pic: tridiagonal size mismatch")
	}
	if n == 0 {
		return d, nil
	}
	cp := make([]float64, n)
	beta := b[0]
	if beta == 0 {
		return nil, fmt.Errorf("pic: singular tridiagonal system")
	}
	d[0] /= beta
	for i := 1; i < n; i++ {
		cp[i-1] = c[i-1] / beta
		beta = b[i] - a[i]*cp[i-1]
		if beta == 0 {
			return nil, fmt.Errorf("pic: singular tridiagonal system")
		}
		d[i] = (d[i] - a[i]*d[i-1]) / beta
	}
	for i := n - 2; i >= 0; i-- {
		d[i] -= cp[i] * d[i+1]
	}
	return d, nil
}

// SolveFields solves the 1D Poisson equation −φ” = ρ/ε₀ with grounded
// (Dirichlet) boundaries and differentiates for E, phase 3 of the cycle.
func (s *Sim) SolveFields() error {
	n := s.P.Cells + 1
	dx := s.dx()
	inner := n - 2
	if inner < 1 {
		return fmt.Errorf("pic: grid too small for field solve")
	}
	a := make([]float64, inner)
	b := make([]float64, inner)
	c := make([]float64, inner)
	d := make([]float64, inner)
	for i := 0; i < inner; i++ {
		a[i], b[i], c[i] = 1, -2, 1
		d[i] = -s.Rho[i+1] * dx * dx / Epsilon0
	}
	sol, err := SolveTridiagonal(a, b, c, d)
	if err != nil {
		return err
	}
	s.Phi[0], s.Phi[n-1] = 0, 0
	copy(s.Phi[1:n-1], sol)
	for i := 1; i < n-1; i++ {
		s.E[i] = -(s.Phi[i+1] - s.Phi[i-1]) / (2 * dx)
	}
	s.E[0] = -(s.Phi[1] - s.Phi[0]) / dx
	s.E[n-1] = -(s.Phi[n-1] - s.Phi[n-2]) / dx
	return nil
}

// fieldAt interpolates E to position x (linear).
func (s *Sim) fieldAt(x float64) float64 {
	dx := s.dx()
	c := x / dx
	i := int(c)
	if i >= s.P.Cells {
		i = s.P.Cells - 1
	}
	frac := c - float64(i)
	return s.E[i]*(1-frac) + s.E[i+1]*frac
}

// PushParticles advances velocities (when the field solver is active) and
// positions with periodic wrap-around, phase 5 of the cycle.
func (s *Sim) PushParticles() {
	L := s.P.Length
	dt := s.P.Dt
	for _, sp := range s.Species {
		accel := s.P.UseFieldSolver && sp.Charge != 0
		qm := sp.Charge / sp.Mass
		for i := range sp.X {
			if accel {
				sp.VX[i] += qm * s.fieldAt(sp.X[i]) * dt
			}
			x := sp.X[i] + sp.VX[i]*dt
			for x < 0 {
				x += L
			}
			for x >= L {
				x -= L
			}
			sp.X[i] = x
		}
	}
}

// CollideIonization performs the Monte-Carlo ionization step for the
// paper's use case: each D neutral ionizes with probability nₑ·R·dt,
// becoming a D+ ion and releasing a new electron that inherits the
// neutral's velocity (plus the incident electron population is unchanged
// in this simplified channel). Returns the number of ionization events.
func (s *Sim) CollideIonization() int {
	if s.P.IonizationRate <= 0 {
		return 0
	}
	e, okE := s.SpeciesByName("e")
	dplus, okI := s.SpeciesByName("D+")
	d, okN := s.SpeciesByName("D")
	if !okE || !okI || !okN || d.N() == 0 {
		return 0
	}
	ne := float64(e.N()) * e.Weight / s.P.Length // mean electron density
	prob := ne * s.P.IonizationRate * s.P.Dt
	if prob > 1 {
		prob = 1
	}
	events := 0
	for i := d.N() - 1; i >= 0; i-- {
		if s.rng.Float64() >= prob {
			continue
		}
		// The neutral becomes an ion; a secondary electron is born cold.
		dplus.add(d.X[i], d.VX[i], d.VY[i], d.VZ[i])
		e.add(d.X[i], 0, 0, 0)
		d.remove(i)
		events++
	}
	return events
}

// Advance runs one full PIC MC cycle: deposit → smooth → solve → collide
// → push.
func (s *Sim) Advance() error {
	if s.P.UseFieldSolver {
		s.DepositDensity()
		if s.P.UseSmoother {
			s.SmoothDensity()
		}
		if err := s.SolveFields(); err != nil {
			return err
		}
	}
	s.CollideIonization()
	if s.P.BoundedWalls {
		s.PushParticlesBounded()
	} else {
		s.PushParticles()
	}
	s.Step++
	return nil
}
