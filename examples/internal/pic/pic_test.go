package pic

import (
	"math"
	"testing"
	"testing/quick"
)

// ionizationSetup builds the paper's use case at test scale: electrons,
// D+ ions and D neutrals, no field solver.
func ionizationSetup(t *testing.T, n int, rate float64) *Sim {
	t.Helper()
	s, err := New(Params{
		Cells: 64, Length: 1.0, Dt: 1e-9, Seed: 11,
		IonizationRate: rate,
	}, []SpeciesSpec{
		{Name: "e", Mass: ElectronMass, Charge: -ElementaryQ, NParticles: n, Density: 1e18, Temperature: 10},
		{Name: "D+", Mass: DeuteronMass, Charge: ElementaryQ, NParticles: n, Density: 1e18, Temperature: 1},
		{Name: "D", Mass: DeuteronMass, Charge: 0, NParticles: n, Density: 1e18, Temperature: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Params{Cells: 1, Length: 1, Dt: 1}, nil); err == nil {
		t.Error("1 cell accepted")
	}
	if _, err := New(Params{Cells: 8, Length: 0, Dt: 1}, nil); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := New(Params{Cells: 8, Length: 1, Dt: 0}, nil); err == nil {
		t.Error("zero dt accepted")
	}
	if _, err := New(Params{Cells: 8, Length: 1, Dt: 1}, []SpeciesSpec{{Name: "x", NParticles: -1}}); err == nil {
		t.Error("negative particles accepted")
	}
}

func TestUniformLoadIsNeutral(t *testing.T) {
	s := ionizationSetup(t, 20000, 0)
	s.DepositDensity()
	// Equal e and D+ populations with equal |q| and weight: net charge
	// density should be small relative to a single-species density.
	// Shot noise for ~312 particles/cell is ~8% per node; allow 3.5 σ
	// for the max over 63 nodes.
	var maxAbs float64
	scale := ElementaryQ * 1e18 // single-species physical charge density
	for _, r := range s.Rho[1 : len(s.Rho)-1] {
		if a := math.Abs(r); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs > 0.35*scale {
		t.Fatalf("net charge density %.3g not small vs %.3g", maxAbs, scale)
	}
}

func TestDepositConservesCharge(t *testing.T) {
	// Single charged species, so nothing cancels.
	s, err := New(Params{Cells: 32, Length: 1, Dt: 1e-9, Seed: 5}, []SpeciesSpec{
		{Name: "e", Mass: ElectronMass, Charge: -ElementaryQ, NParticles: 5000, Density: 1e18, Temperature: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.DepositDensity()
	dx := s.P.Length / float64(s.P.Cells)
	var total float64
	for _, r := range s.Rho {
		total += r * dx
	}
	e := s.Species[0]
	want := e.Charge * e.Weight * float64(e.N())
	if math.Abs(total-want) > 1e-9*math.Abs(want) {
		t.Fatalf("deposited %g, want %g", total, want)
	}
}

func TestSmootherPreservesTotal(t *testing.T) {
	// A known positive profile: conservation in the interior plus actual
	// smoothing of the peak.
	s, _ := New(Params{Cells: 32, Length: 1, Dt: 1e-9}, nil)
	for i := range s.Rho {
		s.Rho[i] = 1
	}
	s.Rho[16] = 10 // spike
	var before float64
	for _, r := range s.Rho[1 : len(s.Rho)-1] {
		before += r
	}
	s.SmoothDensity()
	var after float64
	for _, r := range s.Rho[1 : len(s.Rho)-1] {
		after += r
	}
	if s.Rho[16] >= 10 {
		t.Fatal("spike not smoothed")
	}
	if s.Rho[15] <= 1 || s.Rho[17] <= 1 {
		t.Fatal("spike not spread to neighbours")
	}
	if math.Abs(after-before) > 0.01*before {
		t.Fatalf("smoother not conservative: %g -> %g", before, after)
	}
}

func TestTridiagonalKnownSystem(t *testing.T) {
	// [2 1 0; 1 2 1; 0 1 2] x = [4 8 8] → x = [1 2 3].
	a := []float64{0, 1, 1}
	b := []float64{2, 2, 2}
	c := []float64{1, 1, 0}
	d := []float64{4, 8, 8}
	x, err := SolveTridiagonal(a, b, c, d)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x=%v", x)
		}
	}
}

func TestTridiagonalErrors(t *testing.T) {
	if _, err := SolveTridiagonal([]float64{1}, []float64{1, 2}, []float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := SolveTridiagonal([]float64{0, 1}, []float64{0, 1}, []float64{0, 0}, []float64{1, 1}); err == nil {
		t.Error("singular system accepted")
	}
}

// Property: the tridiagonal solver inverts the matrix product.
func TestTridiagonalProperty(t *testing.T) {
	f := func(seed uint8, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		a := make([]float64, n)
		b := make([]float64, n)
		c := make([]float64, n)
		x := make([]float64, n)
		rng := newTestRNG(uint64(seed))
		for i := 0; i < n; i++ {
			a[i] = rng()
			c[i] = rng()
			b[i] = 4 + rng() // diagonally dominant → nonsingular
			x[i] = 10 * (rng() - 0.5)
		}
		a[0], c[n-1] = 0, 0
		// d = A x.
		d := make([]float64, n)
		for i := 0; i < n; i++ {
			d[i] = b[i] * x[i]
			if i > 0 {
				d[i] += a[i] * x[i-1]
			}
			if i < n-1 {
				d[i] += c[i] * x[i+1]
			}
		}
		sol, err := SolveTridiagonal(a, b, c, d)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(sol[i]-x[i]) > 1e-8*(1+math.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func newTestRNG(seed uint64) func() float64 {
	s := seed*2862933555777941757 + 3037000493
	return func() float64 {
		s = s*2862933555777941757 + 3037000493
		return float64(s>>11) / (1 << 53)
	}
}

func TestPoissonUniformDensity(t *testing.T) {
	// Uniform ρ with grounded walls: φ should be a parabola with maximum
	// at the centre; E antisymmetric about the centre.
	s, _ := New(Params{Cells: 100, Length: 1, Dt: 1e-9, UseFieldSolver: true}, nil)
	for i := range s.Rho {
		s.Rho[i] = 1e-8
	}
	if err := s.SolveFields(); err != nil {
		t.Fatal(err)
	}
	mid := len(s.Phi) / 2
	if s.Phi[mid] <= s.Phi[10] || s.Phi[mid] <= s.Phi[len(s.Phi)-10] {
		t.Fatal("potential not peaked in the centre for uniform positive charge")
	}
	// Analytic peak: ρL²/(8ε₀).
	want := 1e-8 * 1.0 / (8 * Epsilon0)
	if math.Abs(s.Phi[mid]-want)/want > 0.01 {
		t.Fatalf("phi_mid=%g, want %g", s.Phi[mid], want)
	}
	if math.Abs(s.E[mid]) > math.Abs(s.E[10]) {
		t.Fatal("field should vanish at the centre")
	}
}

func TestPushPeriodicWrap(t *testing.T) {
	s, _ := New(Params{Cells: 10, Length: 1, Dt: 0.3}, nil)
	sp := &Species{Name: "t", Mass: 1, Charge: 0, Weight: 1}
	sp.add(0.9, 1, 0, 0)  // will cross the right boundary
	sp.add(0.1, -1, 0, 0) // will cross the left boundary
	s.Species = append(s.Species, sp)
	s.PushParticles()
	for i, x := range sp.X {
		if x < 0 || x >= 1 {
			t.Fatalf("particle %d escaped: x=%v", i, x)
		}
	}
	if math.Abs(sp.X[0]-0.2) > 1e-12 || math.Abs(sp.X[1]-0.8) > 1e-12 {
		t.Fatalf("wrap positions %v", sp.X)
	}
}

func TestIonizationDecayMatchesTheory(t *testing.T) {
	// ∂n/∂t = −n·nₑ·R with fixed nₑ: after T steps the surviving neutral
	// fraction should be ≈ exp(−nₑ R T dt).
	const n0 = 30000
	rate := 2e-15
	s := ionizationSetup(t, n0, rate)
	e, _ := s.SpeciesByName("e")
	d, _ := s.SpeciesByName("D")
	ne := float64(e.N()) * e.Weight / s.P.Length
	steps := 200
	for i := 0; i < steps; i++ {
		if err := s.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	// nₑ grows as neutrals ionize, so theory with initial nₑ is an upper
	// bound for survival; use a generous tolerance band.
	got := float64(d.N()) / n0
	want := math.Exp(-ne * rate * float64(steps) * s.P.Dt)
	if math.Abs(got-want)/want > 0.15 {
		t.Fatalf("surviving fraction %.4f, theory %.4f", got, want)
	}
	if got >= 1 {
		t.Fatal("no ionization happened")
	}
}

func TestIonizationConservesChargeAndCount(t *testing.T) {
	s := ionizationSetup(t, 10000, 5e-15)
	e, _ := s.SpeciesByName("e")
	dp, _ := s.SpeciesByName("D+")
	d, _ := s.SpeciesByName("D")
	heavy0 := dp.N() + d.N()
	for i := 0; i < 50; i++ {
		s.Advance()
	}
	if dp.N()+d.N() != heavy0 {
		t.Fatalf("heavy particles not conserved: %d -> %d", heavy0, dp.N()+d.N())
	}
	// Every new ion must come with a new electron.
	if e.N()-10000 != dp.N()-10000 {
		t.Fatalf("charge imbalance: e=%d D+=%d", e.N(), dp.N())
	}
}

func TestEnergyConservationPlasmaOscillation(t *testing.T) {
	// With the field solver on, a perturbed two-species plasma should
	// conserve total energy to a few percent over a plasma period.
	s, err := New(Params{
		Cells: 64, Length: 0.01, Dt: 1e-11, Seed: 3,
		UseFieldSolver: true, UseSmoother: true,
	}, []SpeciesSpec{
		{Name: "e", Mass: ElectronMass, Charge: -ElementaryQ, NParticles: 40000, Density: 1e14, Temperature: 1},
		{Name: "D+", Mass: DeuteronMass, Charge: ElementaryQ, NParticles: 40000, Density: 1e14, Temperature: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.DepositDensity()
	s.SolveFields()
	e0 := totalEnergy(s)
	for i := 0; i < 100; i++ {
		if err := s.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	e1 := totalEnergy(s)
	if rel := math.Abs(e1-e0) / e0; rel > 0.05 {
		t.Fatalf("energy drifted %.2f%% over 100 steps", rel*100)
	}
}

func TestDensityProfileIntegratesToCount(t *testing.T) {
	s := ionizationSetup(t, 12345, 0)
	e, _ := s.SpeciesByName("e")
	prof := s.DensityProfile(e)
	dx := s.P.Length / float64(s.P.Cells)
	var total float64
	for _, n := range prof {
		total += n * dx
	}
	want := float64(e.N()) * e.Weight
	if math.Abs(total-want)/want > 1e-9 {
		t.Fatalf("profile integral %g, want %g", total, want)
	}
}

func TestVelocityDistributionMoments(t *testing.T) {
	s := ionizationSetup(t, 50000, 0)
	e, _ := s.SpeciesByName("e")
	vth := math.Sqrt(10 * ElementaryQ / ElectronMass)
	h := velocityDistribution(e.VX, 40, 5*vth)
	var count float64
	for _, c := range h {
		count += c
	}
	if count < 0.99*float64(e.N()) {
		t.Fatalf("histogram lost particles: %v of %d", count, e.N())
	}
	// Symmetric-ish: left and right halves within 5%.
	var left, right float64
	for i, c := range h {
		if i < 20 {
			left += c
		} else {
			right += c
		}
	}
	if math.Abs(left-right)/count > 0.05 {
		t.Fatalf("velocity distribution skewed: %v vs %v", left, right)
	}
}

func TestRemoveSwapsLast(t *testing.T) {
	sp := &Species{Name: "t", Weight: 1}
	sp.add(1, 10, 0, 0)
	sp.add(2, 20, 0, 0)
	sp.add(3, 30, 0, 0)
	sp.remove(0)
	if sp.N() != 2 || sp.X[0] != 3 || sp.VX[0] != 30 {
		t.Fatalf("after remove: %+v", sp)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() float64 {
		s := ionizationSetup(t, 5000, 4e-15)
		for i := 0; i < 30; i++ {
			s.Advance()
		}
		d, _ := s.SpeciesByName("D")
		return float64(d.N())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs diverged: %v vs %v", a, b)
	}
}

// totalEnergy is kinetic plus field energy: the conserved quantity of
// TestEnergyConservationPlasmaOscillation.
func totalEnergy(s *Sim) float64 {
	e := 0.0
	for _, sp := range s.Species {
		e += sp.KineticEnergy()
	}
	dx := s.dx()
	for _, ef := range s.E {
		e += 0.5 * Epsilon0 * ef * ef * dx
	}
	return e
}

// velocityDistribution histograms one velocity component into bins over
// [-vmax, vmax].
func velocityDistribution(vs []float64, bins int, vmax float64) []float64 {
	out := make([]float64, bins)
	w := 2 * vmax / float64(bins)
	for _, v := range vs {
		if i := int((v + vmax) / w); i >= 0 && i < bins {
			out[i]++
		}
	}
	return out
}
