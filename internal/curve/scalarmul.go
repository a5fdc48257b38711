// Scalar multiplication strategies, all on the limb Jacobian layer.
//
// Variable base: width-w NAF. The scalar is recoded into signed odd digits
// so that on average only 1/(w+1) of the loop iterations perform an
// addition (vs 1/2 for double-and-add), and the odd multiples ±P, ±3P, …,
// ±(2^(w−1)−1)P are precomputed once and batch-normalized to affine so the
// loop uses cheap mixed additions. Fixed public scalars (the subgroup
// order q, the cofactor c) are recoded once per curve.
//
// Fixed base: a Precomputed radix-2^w table (single-table comb) holding
// d·2^(wj)·P for every window j and digit d. A fixed-base multiply is then
// just one table lookup and one mixed addition per window — no doublings at
// all — at the cost of (2^w − 1)·⌈bits/w⌉ stored affine points.
//
// Secret scalars take the constant-time fixed-window ladder of ctladder.go
// instead; both variable-time paths here skip zero digits and invert with
// the binary GCD.
package curve

import (
	"fmt"
	"math/big"

	"repro/internal/fp"
)

// wnafWidth picks the NAF window for a scalar of the given bit length:
// the precomputation (2^(w−2) points) must amortize over bits/(w+1)
// additions saved.
func wnafWidth(bits int) uint {
	switch {
	case bits >= 128:
		return 5
	case bits >= 24:
		return 4
	default:
		return 2 // plain NAF
	}
}

// maxOddMultiples bounds the odd-multiple table, 2^(w−2) points for the
// widest window wnafWidth picks.
const maxOddMultiples = 1 << (5 - 2)

// wnaf recodes |k| into width-w non-adjacent form: digits in
// {0, ±1, ±3, …, ±(2^(w−1)−1)}, least significant first, with at most one
// nonzero digit in any w consecutive positions. The recoding runs on the
// scalar's machine words, so it costs two allocations whatever the size.
//
//cryptolint:vartime (recoding for the variable-time w-NAF: public scalars, or ScalarMul callers that accept variable time)
func wnaf(k *big.Int, w uint) []int8 {
	n := scalarWords(k)
	digits := make([]int8, 0, k.BitLen()+1)
	mask := uint64(1)<<w - 1
	half := uint64(1) << (w - 1)
	for !wordsZero(n) {
		var d int8
		if n[0]&1 == 1 {
			low := n[0] & mask
			if low >= half {
				// Negative digit low − 2^w: adding 2^w − low keeps the
				// remainder even.
				d = int8(int64(low) - int64(mask) - 1)
				addWord(n, mask+1-low)
			} else {
				d = int8(low)
				n[0] -= low // the low bits of n are exactly low: no borrow
			}
		}
		digits = append(digits, d)
		shr1(n)
	}
	return digits
}

// wordsZero reports whether the multiword n is zero.
//
//cryptolint:vartime (loop bound of the public-scalar w-NAF recoding)
func wordsZero(n []uint64) bool {
	var acc uint64
	for _, w := range n {
		acc |= w
	}
	return acc == 0
}

// addWord adds a single word to the little-endian multiword n in place.
func addWord(n []uint64, v uint64) {
	for i := range n {
		s := n[i] + v
		carry := s < v
		n[i] = s
		if !carry {
			return
		}
		v = 1
	}
}

// shr1 shifts the little-endian multiword n right by one bit in place.
func shr1(n []uint64) {
	for i := 0; i < len(n)-1; i++ {
		n[i] = n[i]>>1 | n[i+1]<<63
	}
	n[len(n)-1] >>= 1
}

// oddMultiples fills table[i] with the affine (Z = 1) point (2i+1)·B for the
// affine base B = (bx, by); entries that collapse to O (small-order bases)
// keep Z = 0. prefix must hold len(table) field elements; twoB is scratch.
func oddMultiples(F *fp.Field, table []limbJac, prefix [][]uint64, bx, by []uint64, twoB *limbJac, s *ljScratch) {
	twoB.setAffine(F, bx, by)
	ljDouble(F, twoB, s)
	table[0].setAffine(F, bx, by)
	for i := 1; i < len(table); i++ {
		table[i].set(F, &table[i-1])
		ljAdd(F, &table[i], twoB, s) // 2B = O (order-2 base) leaves every entry at B
	}
	// The only failure is inverting zero, impossible for a product of
	// nonzero Z coordinates modulo a prime.
	_ = ljBatchNormalize(F, table, prefix, s)
}

// wnafMul sets acc = Σ digits[i]·2^i·B for the affine base B = (bx, by)
// and w-NAF digits of width w, most significant first. acc must enter as
// the identity.
//
//cryptolint:vartime (variable-time w-NAF ladder: digits of public scalars, or of ScalarMul callers that accept variable time)
func (c *Curve) wnafMul(a *limbArena, acc *limbJac, bx, by []uint64, digits []int8, w uint) {
	F := c.field
	s := a.scratch()
	var tableBuf [maxOddMultiples]limbJac
	var prefixBuf [maxOddMultiples][]uint64
	m := 1 << (w - 2) // odd multiples {1, 3, …, 2m−1}·B
	table, prefix := tableBuf[:m], prefixBuf[:m]
	for i := range table {
		table[i] = a.jac()
		prefix[i] = a.elt()
	}
	twoB := a.jac()
	oddMultiples(F, table, prefix, bx, by, &twoB, &s)

	ny := a.elt()
	for i := len(digits) - 1; i >= 0; i-- {
		ljDouble(F, acc, &s)
		d := digits[i]
		if d == 0 {
			continue
		}
		var e *limbJac
		if d > 0 {
			e = &table[(d-1)/2]
		} else {
			e = &table[(-d-1)/2]
		}
		if F.IsZero(e.z) {
			continue // odd multiple collapsed to O (tiny-order base): adds nothing
		}
		if d > 0 {
			ljAddMixed(F, acc, e.x, e.y, &s)
		} else {
			F.Neg(ny, e.y)
			ljAddMixed(F, acc, e.x, ny, &s)
		}
	}
}

// wnafArenaElts is the arena size wnafMul draws from for a window of at
// most maxOddMultiples entries: scratch, the table with its prefix slab,
// 2B and the negated-y temporary.
const wnafArenaElts = arenaScratchElts + 4*maxOddMultiples + 3 + 1

// mulDigits returns the affine Σ digits[i]·2^i·pt for a non-identity pt,
// with the sign of every digit flipped when neg is set.
func (c *Curve) mulDigits(pt *Point, digits []int8, w uint, neg bool) *Point {
	F := c.field
	a := newLimbArena(F, 2+3+arenaScratchElts+wnafArenaElts)
	bx, by := a.elt(), a.elt()
	c.loadAffine(pt, bx, by)
	if neg {
		F.Neg(by, by)
	}
	acc := a.jac()
	s := a.scratch()
	c.wnafMul(&a, &acc, bx, by, digits, w)
	return c.ljToPoint(&acc, &s)
}

// ScalarMul returns k·P for any integer k (negative, zero or wider than
// the group order; it is not reduced). The multiplication runs on the limb
// Jacobian layer with a width-w NAF recoding of the scalar, and the result
// is normalized back to affine form, so outputs are bit-identical to the
// affine double-and-add ladder ScalarMulBinary.
//
// ScalarMul is variable-time in k: it is meant for public scalars. Secret
// scalars go through ScalarMulCT.
//
//cryptolint:vartime (variable-time w-NAF for public scalars; secret scalars on online paths use ScalarMulCT)
func (pt *Point) ScalarMul(k *big.Int) *Point {
	c := pt.curve
	if pt.inf || k.Sign() == 0 {
		return c.Infinity()
	}
	w := wnafWidth(k.BitLen())
	return pt.multiple(c.mulDigits(pt, wnaf(k, w), w, k.Sign() < 0))
}

// clearCofactor returns c·P with the cofactor recoding cached on the curve,
// marking the result as a G1 element.
func (c *Curve) clearCofactor(pt *Point) *Point {
	if pt.inf {
		return pt
	}
	out := c.mulDigits(pt, c.cNAF, c.cW, false)
	if !out.inf {
		out.g1.Store(1) // cofactor-cleared by construction
	}
	return out
}

// ScalarMulBinary is the original affine left-to-right double-and-add
// ladder. It is retained as the correctness oracle for the limb w-NAF path
// (differential tests) and for the coordinates ablation benchmark.
//
//cryptolint:vartime (the affine differential-test oracle)
func (pt *Point) ScalarMulBinary(k *big.Int) *Point {
	c := pt.curve
	if pt.inf || k.Sign() == 0 {
		return c.Infinity()
	}
	base := pt
	scalar := k
	if k.Sign() < 0 {
		base = pt.Neg()
		scalar = new(big.Int).Neg(k)
	}
	acc := c.Infinity()
	for i := scalar.BitLen() - 1; i >= 0; i-- {
		acc = acc.Double()
		if scalar.Bit(i) == 1 {
			acc = acc.Add(base)
		}
	}
	return acc
}

// Precomputed is a fixed-base scalar-multiplication table for a long-lived
// point (the G1 generator, the PKG public key, key halves): a radix-2^w
// comb storing d·2^(wj)·base for every window j and digit d ∈ [1, 2^w−1]
// as affine Montgomery-form limb coordinates. Immutable and safe for
// concurrent use after construction.
type Precomputed struct {
	curve   *Curve //cryptolint:public (curve parameters)
	base    *Point
	order   *big.Int //cryptolint:public (the point's public order)
	windows int
	// tab holds entry (j, d) as x at element 2·e and y at element 2·e+1 of
	// the flat limb slab, e = j·(2^w−1) + d−1; inf marks entries that are
	// the identity (only possible for small-order bases).
	tab []uint64
	inf []bool
}

// precompWindow is the fixed-base radix; 4 keeps the table at
// (2^4−1)·⌈|q|/4⌉ points (600 for a 160-bit order) while cutting a
// multiply to ⌈|q|/4⌉ mixed additions.
const precompWindow = 4

// NewPrecomputed builds the fixed-base table for base, whose order must be
// the given positive integer (q for G1 points). Building costs one pass of
// Jacobian arithmetic plus one batch normalization; afterwards every
// ScalarMul is ~⌈bits(order)/w⌉ mixed additions and a single inversion.
func NewPrecomputed(base *Point, order *big.Int) (*Precomputed, error) {
	if base == nil || base.IsInfinity() {
		return nil, fmt.Errorf("curve: cannot precompute the point at infinity")
	}
	if order == nil || order.Sign() <= 0 {
		return nil, fmt.Errorf("curve: precomputation needs a positive point order")
	}
	c := base.curve
	F := c.field
	n := F.Limbs()
	windows := (order.BitLen() + precompWindow - 1) / precompWindow
	perWindow := 1<<precompWindow - 1
	entries := windows * perWindow

	a := newLimbArena(F, 4*entries+3+arenaScratchElts)
	s := a.scratch()
	flat := make([]limbJac, entries)
	prefix := make([][]uint64, entries)
	running := a.jac() // 2^(wj)·base for the current window
	c.loadAffine(base, running.x, running.y)
	F.SetOne(running.z)
	for j := 0; j < windows; j++ {
		for d := 0; d < perWindow; d++ {
			e := j*perWindow + d
			flat[e] = a.jac()
			prefix[e] = a.elt()
			if d > 0 {
				flat[e].set(F, &flat[e-1])
			}
			ljAdd(F, &flat[e], &running, &s)
		}
		for b := 0; b < precompWindow; b++ {
			ljDouble(F, &running, &s)
		}
	}
	if err := ljBatchNormalize(F, flat, prefix, &s); err != nil {
		return nil, fmt.Errorf("curve: normalize comb table: %w", err)
	}
	pc := &Precomputed{
		curve:   c,
		base:    base,
		order:   new(big.Int).Set(order),
		windows: windows,
		tab:     make([]uint64, 2*entries*n),
		inf:     make([]bool, entries),
	}
	for e := range flat {
		copy(pc.tab[2*e*n:], flat[e].x)
		copy(pc.tab[(2*e+1)*n:], flat[e].y)
		pc.inf[e] = F.IsZero(flat[e].z)
	}
	return pc, nil
}

// Base returns the point the table was built for.
func (pc *Precomputed) Base() *Point { return pc.base }

// TableSize returns the number of stored points (memory diagnostics).
func (pc *Precomputed) TableSize() int { return len(pc.inf) }

// ScalarMul returns (k mod order)·base using only table lookups and mixed
// additions — no doublings. The result is the same group element (and the
// same affine encoding) that base.ScalarMul(k) produces. Variable-time in
// k, like Point.ScalarMul.
//
//cryptolint:vartime (variable-time comb: zero digits are skipped)
func (pc *Precomputed) ScalarMul(k *big.Int) *Point {
	c := pc.curve
	kr := k
	if k.Sign() < 0 || k.Cmp(pc.order) >= 0 {
		kr = new(big.Int).Mod(k, pc.order)
	}
	if kr.Sign() == 0 {
		return c.Infinity()
	}
	F := c.field
	n := F.Limbs()
	words := scalarWords(kr)
	a := newLimbArena(F, 3+arenaScratchElts)
	acc := a.jac()
	s := a.scratch()
	perWindow := 1<<precompWindow - 1
	for j := 0; j < pc.windows; j++ {
		d := int(windowDigit(words, j*precompWindow, precompWindow))
		if d == 0 {
			continue
		}
		e := j*perWindow + d - 1
		if pc.inf[e] {
			continue
		}
		ljAddMixed(F, &acc, pc.tab[2*e*n:(2*e+1)*n], pc.tab[(2*e+1)*n:(2*e+2)*n], &s)
	}
	return pc.base.multiple(c.ljToPoint(&acc, &s))
}
