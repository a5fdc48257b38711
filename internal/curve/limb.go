// Limb-domain Jacobian arithmetic: the only group-arithmetic layer of the
// package. Every scalar multiplication (w-NAF, fixed-base comb, the
// constant-time ladder), the cofactor clearing of hash-to-point, the
// subgroup check and the MSM kernel run here, on internal/fp Montgomery
// limb vectors; math/big appears only where a value enters or leaves the
// field (Point coordinates, scalars, hash digests).
//
// A Jacobian triple (X, Y, Z) with Z ≠ 0 denotes the affine point
// (X/Z², Y/Z³); Z = 0 denotes the point at infinity. The formulas are the
// standard ones for short Weierstrass curves with a = 1 (M = 3X² + Z⁴):
//
//	doubling:   S = 4XY², M = 3X² + Z⁴,
//	            X' = M² − 2S, Y' = M(S − X') − 8Y⁴, Z' = 2YZ
//	mixed add:  U2 = x·Z², S2 = y·Z³, H = U2 − X, R = S2 − Y,
//	            X' = R² − H³ − 2XH², Y' = R(XH² − X') − YH³, Z' = ZH
//
// Results are normalized back to the immutable affine Point with one
// inversion; batches (precomputation tables, MSM buckets) share a single
// inversion through Montgomery's simultaneous-inversion trick. Equal group
// elements have equal canonical affine coordinates, so every path here is
// bit-identical to the affine double-and-add oracle ScalarMulBinary.
//
// The fp.Field for the curve prime is built once by New, which refuses any
// prime the limb backend cannot host (beyond fp.MaxLimbs); there is no
// fallback layer.
package curve

import (
	"math/big"

	"repro/internal/fp"
)

// limbArena hands out field elements carved from one backing array, so a
// kernel pays a single allocation for all of its temporaries.
type limbArena struct {
	buf []uint64
	n   int
}

func newLimbArena(F *fp.Field, elts int) limbArena {
	n := F.Limbs()
	return limbArena{buf: make([]uint64, elts*n), n: n}
}

// elt returns the next zero field element of the arena.
func (a *limbArena) elt() []uint64 {
	e := a.buf[:a.n:a.n]
	a.buf = a.buf[a.n:]
	return e
}

// jac returns a fresh identity (Z = 0) Jacobian point.
func (a *limbArena) jac() limbJac {
	return limbJac{x: a.elt(), y: a.elt(), z: a.elt()}
}

// scratch returns the temporaries for one chain of Jacobian operations.
func (a *limbArena) scratch() ljScratch {
	return ljScratch{
		t1: a.elt(), t2: a.elt(), t3: a.elt(), t4: a.elt(),
		t5: a.elt(), t6: a.elt(), t7: a.elt(), t8: a.elt(),
	}
}

// arenaScratchElts is the element count of one ljScratch.
const arenaScratchElts = 8

// sqrt sets r to the principal square root a^((p+1)/4) of a (the root
// mathx.SqrtModP returns for p ≡ 3 mod 4) and reports whether a is a
// square; for p ≡ 3 (mod 4), a is a residue iff (a^((p+1)/4))² = a. chk is
// scratch.
func (c *Curve) sqrt(r, a, chk []uint64) bool {
	F := c.field
	F.Exp(r, a, c.sqrtExp)
	F.Square(chk, r)
	return F.Equal(chk, a)
}

// curveRHS sets z = x³ + x.
func curveRHS(F *fp.Field, z, x []uint64) {
	F.Square(z, x)
	F.Mul(z, z, x)
	F.Add(z, z, x)
}

// liftX returns the principal root y of y² = x³ + x for a canonical
// x ∈ [0, p), or false when x is not the abscissa of a curve point.
func (c *Curve) liftX(x *big.Int) (*big.Int, bool) {
	F := c.field
	a := newLimbArena(F, 4)
	xm, rhs, y, chk := a.elt(), a.elt(), a.elt(), a.elt()
	if err := F.FromBig(xm, x); err != nil {
		return nil, false
	}
	curveRHS(F, rhs, xm)
	if !c.sqrt(y, rhs, chk) {
		return nil, false
	}
	return F.ToBig(y), true
}

// loadAffine converts the affine coordinates of a non-identity point into
// Montgomery form.
func (c *Curve) loadAffine(pt *Point, x, y []uint64) {
	// Point coordinates are canonical (< p) by construction, so FromBig's
	// range check cannot fail.
	_ = c.field.FromBig(x, pt.x)
	_ = c.field.FromBig(y, pt.y)
}

// limbJac is a mutable Jacobian point over fp limb vectors in Montgomery
// form: (X, Y, Z) with Z ≠ 0 denotes (X/Z², Y/Z³); Z = 0 is the identity.
type limbJac struct {
	x, y, z []uint64
}

func newLimbJac(F *fp.Field) limbJac {
	a := newLimbArena(F, 3)
	return a.jac() // Z = 0: identity
}

// setAffine loads the Montgomery-form affine point (ax, ay) with Z = 1.
//
//cryptolint:hotpath
func (v *limbJac) setAffine(F *fp.Field, ax, ay []uint64) {
	F.Set(v.x, ax)
	F.Set(v.y, ay)
	F.SetOne(v.z)
}

// set copies u into v.
//
//cryptolint:hotpath
func (v *limbJac) set(F *fp.Field, u *limbJac) {
	F.Set(v.x, u.x)
	F.Set(v.y, u.y)
	F.Set(v.z, u.z)
}

// ljScratch holds the temporaries for a chain of limb Jacobian operations;
// one instance per goroutine, reused across every step.
type ljScratch struct {
	t1, t2, t3, t4, t5, t6, t7, t8 []uint64
}

func newLjScratch(F *fp.Field) *ljScratch {
	a := newLimbArena(F, arenaScratchElts)
	s := a.scratch()
	return &s
}

// ljDouble sets v = 2v in place (a = 1: M = 3X² + Z⁴). It is branch-free:
// the identity (Z = 0) and 2-torsion (Y = 0) cases fall out of the
// formulas as Z' = 2YZ = 0, which is what lets the constant-time ladder
// share it.
//
//cryptolint:hotpath
func ljDouble(F *fp.Field, v *limbJac, s *ljScratch) {
	xx := s.t1
	F.Square(xx, v.x)
	yy := s.t2
	F.Square(yy, v.y)
	zz := s.t3
	F.Square(zz, v.z)

	// S = 4·X·Y²
	sS := s.t4
	F.Mul(sS, v.x, yy)
	F.Double(sS, sS)
	F.Double(sS, sS)

	// M = 3·X² + Z⁴
	m := s.t5
	F.Square(m, zz)
	F.Add(m, m, xx)
	F.Add(m, m, xx)
	F.Add(m, m, xx)

	// Z' = 2·Y·Z (before Y is overwritten)
	F.Mul(v.z, v.y, v.z)
	F.Double(v.z, v.z)

	// X' = M² − 2S
	F.Square(v.x, m)
	F.Sub(v.x, v.x, sS)
	F.Sub(v.x, v.x, sS)

	// Y' = M·(S − X') − 8·Y⁴
	yyyy := s.t6
	F.Square(yyyy, yy)
	F.Double(yyyy, yyyy)
	F.Double(yyyy, yyyy)
	F.Double(yyyy, yyyy)
	F.Sub(v.y, sS, v.x)
	F.Mul(v.y, v.y, m)
	F.Sub(v.y, v.y, yyyy)
}

// ljMixedHR starts the mixed addition v + (ax, ay): it leaves
// H = x·Z² − X in s.t2 and R = y·Z³ − Y in s.t3, which classify the
// operands (H = 0, R = 0: equal; H = 0, R ≠ 0: opposite) before
// ljMixedFinish completes the sum.
//
//cryptolint:hotpath
func ljMixedHR(F *fp.Field, v *limbJac, ax, ay []uint64, s *ljScratch) {
	zz := s.t1
	F.Square(zz, v.z)
	h := s.t2
	F.Mul(h, ax, zz) // U2 = x·Z²
	r := s.t3
	F.Mul(r, ay, zz) // S2 = y·Z³
	F.Mul(r, r, v.z)
	F.Sub(h, h, v.x) // H = U2 − X
	F.Sub(r, r, v.y) // R = S2 − Y
}

// ljMixedFinish completes the mixed addition begun by ljMixedHR. For
// opposite operands (H = 0, R ≠ 0) it yields Z' = 0, the correct identity;
// for equal operands its output is meaningless and callers substitute a
// doubling.
//
//cryptolint:hotpath
func ljMixedFinish(F *fp.Field, v *limbJac, s *ljScratch) {
	h, r := s.t2, s.t3
	hh := s.t4
	F.Square(hh, h)
	hhh := s.t5
	F.Mul(hhh, hh, h)
	xh2 := s.t6
	F.Mul(xh2, v.x, hh)

	// Z' = Z·H
	F.Mul(v.z, v.z, h)

	// X' = R² − H³ − 2·X·H²
	F.Square(v.x, r)
	F.Sub(v.x, v.x, hhh)
	F.Sub(v.x, v.x, xh2)
	F.Sub(v.x, v.x, xh2)

	// Y' = R·(X·H² − X') − Y·H³
	F.Sub(xh2, xh2, v.x)
	F.Mul(xh2, xh2, r)
	F.Mul(hhh, hhh, v.y)
	F.Sub(v.y, xh2, hhh)
}

// ljAddMixed sets v = v + (ax, ay) in place for a Montgomery-form affine
// non-identity point: v = O loads the point, v = A doubles, v = −A yields
// O. It branches on the operands, so it serves public data only.
//
//cryptolint:hotpath
func ljAddMixed(F *fp.Field, v *limbJac, ax, ay []uint64, s *ljScratch) {
	if F.IsZero(v.z) {
		v.setAffine(F, ax, ay)
		return
	}
	ljMixedHR(F, v, ax, ay, s)
	if F.IsZero(s.t2) {
		if F.IsZero(s.t3) {
			ljDouble(F, v, s)
		} else {
			F.SetZero(v.z)
		}
		return
	}
	ljMixedFinish(F, v, s)
}

// ljAdd sets v = v + u in place for two general Jacobian points (the
// bucket-sum and window-merge additions, where neither side is affine).
// Standard Z1Z1/Z2Z2 formulas; v = u degenerates to a doubling, v = −u
// to the identity.
//
//cryptolint:hotpath
func ljAdd(F *fp.Field, v, u *limbJac, s *ljScratch) {
	if F.IsZero(u.z) {
		return
	}
	if F.IsZero(v.z) {
		v.set(F, u)
		return
	}
	z1z1 := s.t1
	F.Square(z1z1, v.z)
	z2z2 := s.t2
	F.Square(z2z2, u.z)
	u1 := s.t3
	F.Mul(u1, v.x, z2z2)
	u2 := s.t4
	F.Mul(u2, u.x, z1z1)
	s1 := s.t5
	F.Mul(s1, v.y, u.z)
	F.Mul(s1, s1, z2z2)
	s2 := s.t6
	F.Mul(s2, u.y, v.z)
	F.Mul(s2, s2, z1z1)

	h := u2 // H = U2 − U1
	F.Sub(h, u2, u1)
	r := s2 // R = S2 − S1
	F.Sub(r, s2, s1)

	if F.IsZero(h) {
		if F.IsZero(r) {
			ljDouble(F, v, s)
		} else {
			F.SetZero(v.z)
		}
		return
	}

	hh := s.t7
	F.Square(hh, h)
	hhh := s.t8
	F.Mul(hhh, hh, h)
	u1hh := u1 // U1·H²
	F.Mul(u1hh, u1, hh)

	// Z3 = Z1·Z2·H
	F.Mul(v.z, v.z, u.z)
	F.Mul(v.z, v.z, h)

	// X3 = R² − H³ − 2·U1·H²
	F.Square(v.x, r)
	F.Sub(v.x, v.x, hhh)
	F.Sub(v.x, v.x, u1hh)
	F.Sub(v.x, v.x, u1hh)

	// Y3 = R·(U1·H² − X3) − S1·H³
	F.Sub(u1hh, u1hh, v.x)
	F.Mul(u1hh, u1hh, r)
	F.Mul(hhh, hhh, s1)
	F.Sub(v.y, u1hh, hhh)
}

// ljBatchNormalize converts every non-identity point in pts to affine form
// (Z = 1) in place with Montgomery's simultaneous-inversion trick: one
// variable-time inversion (the coordinates are public) plus three
// multiplications per point. prefix is a caller-owned slab of at least
// len(pts) field elements reused across calls. Identity points are left
// untouched (Z stays 0).
//
//cryptolint:hotpath
func ljBatchNormalize(F *fp.Field, pts []limbJac, prefix [][]uint64, s *ljScratch) error {
	acc := s.t1
	F.SetOne(acc)
	live := 0
	for i := range pts {
		if F.IsZero(pts[i].z) {
			continue
		}
		F.Set(prefix[i], acc)
		F.Mul(acc, acc, pts[i].z)
		live++
	}
	if live == 0 {
		return nil
	}
	if err := F.InvVarTime(acc, acc); err != nil {
		// Unreachable: every factor is a nonzero residue mod the prime p.
		return err
	}
	zInv := s.t2
	zInv2 := s.t3
	for i := len(pts) - 1; i >= 0; i-- {
		if F.IsZero(pts[i].z) {
			continue
		}
		F.Mul(zInv, acc, prefix[i])
		F.Mul(acc, acc, pts[i].z)
		F.Square(zInv2, zInv)
		F.Mul(pts[i].x, pts[i].x, zInv2)
		F.Mul(pts[i].y, pts[i].y, zInv2)
		F.Mul(pts[i].y, pts[i].y, zInv)
		F.SetOne(pts[i].z)
	}
	return nil
}

// ljToPoint normalizes v back to the immutable affine representation with
// one variable-time inversion; v is clobbered. Public intermediates only:
// the constant-time ladder normalizes with fp's Fermat inversion instead.
//
//cryptolint:vartime (binary-GCD normalization of public results; the constant-time ladder normalizes with fp.Field.Inv)
func (c *Curve) ljToPoint(v *limbJac, s *ljScratch) *Point {
	F := c.field
	if F.IsZero(v.z) {
		return c.Infinity()
	}
	if err := F.InvVarTime(s.t1, v.z); err != nil {
		return c.Infinity() // unreachable: Z ≠ 0 mod prime p
	}
	return c.ljAffine(v, s.t1, s)
}

// ljAffine returns the affine Point (X·zInv², Y·zInv³) for the inverse zInv
// of v's Z coordinate (zInv must not alias s.t2 or s.t3).
func (c *Curve) ljAffine(v *limbJac, zInv []uint64, s *ljScratch) *Point {
	F := c.field
	zInv2 := s.t2
	F.Square(zInv2, zInv)
	x := s.t3
	F.Mul(x, v.x, zInv2)
	F.Mul(zInv2, zInv2, zInv)
	F.Mul(v.y, v.y, zInv2)
	return &Point{curve: c, x: F.ToBig(x), y: F.ToBig(v.y)}
}

// scalarWords returns |k| as little-endian uint64 words, with one spare
// zero word on top for the carries of signed-digit recoding.
func scalarWords(k *big.Int) []uint64 {
	out := make([]uint64, (k.BitLen()+63)/64+1)
	fillWords(out, k)
	return out
}

// windowDigit extracts b bits of words starting at bit position bit.
//
//cryptolint:hotpath
func windowDigit(words []uint64, bit, b int) uint64 {
	wi := bit >> 6
	if wi >= len(words) {
		return 0
	}
	d := words[wi] >> (uint(bit) & 63)
	if rem := 64 - (bit & 63); rem < b && wi+1 < len(words) {
		d |= words[wi+1] << uint(rem)
	}
	return d & (1<<uint(b) - 1)
}
