// The constant-time fixed-window ladder for secret scalars.
//
// The SEM's half-signature x_sem·h(M) and the user's x_user·h(M) multiply
// an attacker-chosen (respectively public) point by a long-term secret on
// an online path, so the multiplication must not leak the scalar through
// timing or memory access. The ladder below has a shape fixed by the
// public group order alone:
//
//   - the scalar is read as ⌈|q|/4⌉ 4-bit windows, leading zero windows
//     included — the digit count never depends on the scalar;
//   - every window costs four doublings, one full scan of the 16-entry
//     table (each entry read and merged with fp.Select under an equality
//     mask), and one mixed addition;
//   - the addition never branches: the generic sum, the doubling (for
//     accumulator = table entry) and the two identity cases are all
//     computed or available, and the right one is selected with masks;
//   - the final normalization uses fp's Fermat inversion, not the binary
//     GCD, since the Jacobian Z coordinate depends on the scalar.
//
// The table itself (multiples of the public base) is built with the
// ordinary variable-time kernels: it carries no secret.
package curve

import (
	"math/big"
	"math/bits"

	"repro/internal/fp"
)

// ctWindow is the ladder's fixed window width; the table holds the 2^4
// multiples 0·P … 15·P.
const ctWindow = 4

// ctTableSize is the number of table entries, 2^ctWindow.
const ctTableSize = 1 << ctWindow

// ctEq returns 1 if a = b and 0 otherwise, without branching.
func ctEq(a, b uint64) int {
	x := a ^ b
	return int(((x | -x) >> 63) ^ 1)
}

// ctIsZero returns 1 if the field element x is zero and 0 otherwise,
// without branching.
func ctIsZero(x []uint64) int {
	var acc uint64
	for _, w := range x {
		acc |= w
	}
	return ctEq(acc, 0)
}

// ctSelectJac sets v = u if sel = 1 and leaves v unchanged if sel = 0.
func ctSelectJac(v, u *limbJac, sel int) {
	fp.Select(v.x, u.x, v.x, sel)
	fp.Select(v.y, u.y, v.y, sel)
	fp.Select(v.z, u.z, v.z, sel)
}

// ScalarMulCT returns k·P in time independent of k's value. It is meant
// for secret scalars (signing-key halves).
//
// The ladder runs over the |q|-bit width of the group order: a scalar with
// 0 ≤ k < 2^|q| — every key this repository generates is in [0, q) — is
// multiplied exactly, for any point, bit-identically to ScalarMul. Scalars
// outside that range are first reduced modulo q by a variable-time helper;
// for P ∈ G1 that gives the same k·P.
func (pt *Point) ScalarMulCT(k *big.Int) *Point {
	c := pt.curve
	if pt.inf {
		return c.Infinity()
	}
	qBits := c.q.BitLen()
	if k.Sign() < 0 || k.BitLen() > qBits {
		k = reduceScalar(k, c.q)
	}
	F := c.field

	// Fixed-width words of the scalar: q ≤ p + 1 fits fp.MaxLimbs words.
	var kw [fp.MaxLimbs]uint64
	fillWords(kw[:], k)

	a := newLimbArena(F, 4*ctTableSize+2+2+3*3+1+arenaScratchElts+1)
	s := a.scratch()

	// table[d] = d·P as affine limb coordinates (Z = 1), with tinf[d] = 1
	// where d·P is the identity (always d = 0; more for small-order P).
	var table [ctTableSize]limbJac
	var prefix [ctTableSize][]uint64
	var tinf [ctTableSize]int
	bx, by := a.elt(), a.elt()
	c.loadAffine(pt, bx, by)
	for d := range table {
		table[d] = a.jac()
		prefix[d] = a.elt()
		if d > 0 {
			table[d].set(F, &table[d-1])
			ljAddMixed(F, &table[d], bx, by, &s)
		}
	}
	// The only failure is inverting zero, impossible for a product of
	// nonzero Z coordinates modulo a prime.
	_ = ljBatchNormalize(F, table[:], prefix[:], &s)
	for d := range table {
		tinf[d] = ctIsZero(table[d].z)
	}

	acc := a.jac() // the identity
	ex, ey := a.elt(), a.elt()
	sum, dbl := a.jac(), a.jac()
	one := a.elt()
	F.SetOne(one)
	for j := (qBits+ctWindow-1)/ctWindow - 1; j >= 0; j-- {
		for b := 0; b < ctWindow; b++ {
			ljDouble(F, &acc, &s)
		}
		digit := windowDigit(kw[:], j*ctWindow, ctWindow)
		einf := 0
		for d := range table {
			sel := ctEq(digit, uint64(d))
			fp.Select(ex, table[d].x, ex, sel)
			fp.Select(ey, table[d].y, ey, sel)
			einf |= sel & tinf[d]
		}
		ctAddMixed(F, &acc, ex, ey, einf, &sum, &dbl, one, &s)
	}

	if F.IsZero(acc.z) {
		return c.Infinity() // k·P = O
	}
	zInv := a.elt()
	if err := F.Inv(zInv, acc.z); err != nil {
		return c.Infinity() // unreachable: Z ≠ 0 mod prime p
	}
	return pt.multiple(c.ljAffine(&acc, zInv, &s))
}

// ctAddMixed sets v = v + E for the affine point E = (ex, ey), or E = O
// when einf = 1, without branching on either operand: the generic sum, the
// doubling (equal operands) and the lifted E (v = O) are all computed and
// the result is selected with masks. Opposite operands need no case of
// their own: the generic formulas yield Z = 0. sum and dbl are scratch;
// one holds the Montgomery form of 1.
func ctAddMixed(F *fp.Field, v *limbJac, ex, ey []uint64, einf int, sum, dbl *limbJac, one []uint64, s *ljScratch) {
	vinf := ctIsZero(v.z)
	dbl.set(F, v)
	ljDouble(F, dbl, s)

	sum.set(F, v)
	ljMixedHR(F, sum, ex, ey, s)
	same := ctIsZero(s.t2) & ctIsZero(s.t3)
	ljMixedFinish(F, sum, s)
	ctSelectJac(sum, dbl, same)

	fp.Select(sum.x, ex, sum.x, vinf)
	fp.Select(sum.y, ey, sum.y, vinf)
	fp.Select(sum.z, one, sum.z, vinf)

	ctSelectJac(v, sum, einf^1)
}

// fillWords writes the magnitude of k into dst as little-endian uint64
// words; k must fit.
func fillWords(dst []uint64, k *big.Int) {
	for i, w := range k.Bits() {
		if bits.UintSize == 64 {
			dst[i] = uint64(w)
		} else {
			dst[i/2] |= uint64(w) << (32 * uint(i%2))
		}
	}
}

// reduceScalar returns k mod q for the ladder's out-of-range scalars.
//
//cryptolint:vartime (big.Int reduction of a scalar outside [0, 2^|q|); generated keys never take this path)
func reduceScalar(k, q *big.Int) *big.Int {
	return new(big.Int).Mod(k, q)
}
