// Package fp is a Montgomery-representation prime-field backend on raw
// little-endian []uint64 limb vectors, built from math/bits primitives
// (Add64/Sub64/Mul64) with no math/big on any arithmetic path.
//
// This is the layer every pairing, scalar multiplication and SEM token in
// the repository bottoms out in: internal/gf stores its F_p² coordinates as
// fp limb vectors and the Miller-loop machinery in internal/pairing runs
// its point arithmetic directly on them. math/big survives only at the
// edges — serialization, hashing, scalar I/O — where a value crosses into
// or out of the field (see FromBig/ToBig).
//
// Representation. An element is a []uint64 of exactly Field.Limbs() limbs,
// least-significant first, holding a·R mod p for the logical value a, where
// R = 2^(64·limbs) (Montgomery form). All operations require fully reduced
// inputs (< p) and produce fully reduced outputs. Multiplication is CIOS
// (coarsely integrated operand scanning) Montgomery multiplication; the
// paper shape — 512-bit p, 8 limbs — takes a specialized fixed-bound path
// (fp8.go) selected at Field construction by limb count, every other width
// the generic any-width fallback in this file.
//
// Allocation. No operation allocates: scratch lives in fixed-size stack
// arrays bounded by MaxLimbs, and destinations are caller-provided slices
// (obtain them with NewElt or reuse). This zero-alloc property is
// regression-gated by the benchtab baseline (allocs_per_op column).
//
// Timing. The arithmetic is branch-free on element values: carries are
// folded with masks (ConstantTimeSelect-style on limbs, see ctSelect /
// nonzeroMask), and Equal/IsZero accumulate over all limbs before
// collapsing to a bool. Branching on public quantities — the modulus, limb
// counts, exponent bits of the (public) inversion exponent p−2 — is fine
// and used freely.
package fp

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
)

// MaxLimbs bounds the supported modulus width (16 limbs = 1024 bits). The
// bound exists so per-operation scratch can live in fixed-size stack
// arrays; every parameter set in the repository (96- to 512-bit p) is far
// below it.
const MaxLimbs = 16

// ErrNotInvertible is returned by Inv for the zero element.
var ErrNotInvertible = errors.New("fp: zero is not invertible")

// Field holds the modulus-derived constants of one F_p. Immutable after
// New and safe for concurrent use; all scratch is per-call.
type Field struct {
	n    int      // limb count
	p    []uint64 // modulus, little-endian limbs
	n0   uint64   // −p⁻¹ mod 2^64 (Montgomery constant)
	one  []uint64 // R mod p: the Montgomery form of 1
	rr   []uint64 // R² mod p: converts standard → Montgomery via one Mul
	pBig *big.Int // the modulus (for edge conversions and errors)
	pm2  *big.Int // p − 2, the (public) Fermat inversion exponent

	// lazy is set when p leaves at least two spare bits in its top limb
	// (bitlen(p) ≤ 64n − 2). Then sums of up to four limb products stay
	// below p·R and the F_p² tower can accumulate wide products and pay a
	// single Montgomery reduction per output coordinate (see MulFp2).
	lazy bool
	p2w  []uint64 // 2·p² as 2n limbs (offset making lazy differences non-negative)
}

// New constructs the field of the odd prime p (at most MaxLimbs·64 bits).
// Primality is the caller's contract — Inv computes x^(p−2) and silently
// returns garbage for composite p — and is not re-verified here; every
// caller in this repository passes a generated or fixed pairing prime.
func New(p *big.Int) (*Field, error) {
	if p.Sign() <= 0 || p.Bit(0) == 0 || p.BitLen() <= 1 {
		return nil, fmt.Errorf("fp: modulus must be an odd prime > 2")
	}
	n := (p.BitLen() + 63) / 64
	if n > MaxLimbs {
		return nil, fmt.Errorf("fp: modulus of %d bits exceeds the %d-bit limb-vector bound", p.BitLen(), MaxLimbs*64)
	}
	f := &Field{
		n:    n,
		p:    make([]uint64, n),
		pBig: new(big.Int).Set(p),
		pm2:  new(big.Int).Sub(p, big.NewInt(2)),
	}
	limbsFromBig(f.p, p)

	// n0 = −p⁻¹ mod 2^64 by Newton iteration: y ← y·(2 − p₀·y) doubles the
	// number of correct low bits each round; 6 rounds cover 64 bits.
	y := f.p[0]
	for i := 0; i < 6; i++ {
		y *= 2 - f.p[0]*y
	}
	f.n0 = -y

	r := new(big.Int).Lsh(big.NewInt(1), uint(64*n))
	r.Mod(r, p)
	f.one = make([]uint64, n)
	limbsFromBig(f.one, r)
	rr := new(big.Int).Lsh(big.NewInt(1), uint(128*n))
	rr.Mod(rr, p)
	f.rr = make([]uint64, n)
	limbsFromBig(f.rr, rr)

	f.lazy = p.BitLen() <= 64*n-2
	if f.lazy {
		p2 := new(big.Int).Mul(p, p)
		p2.Lsh(p2, 1)
		f.p2w = make([]uint64, 2*n)
		limbsFromBig(f.p2w, p2)
	}
	return f, nil
}

// Limbs returns the limb count of an element.
func (f *Field) Limbs() int { return f.n }

// P returns a copy of the modulus.
func (f *Field) P() *big.Int { return new(big.Int).Set(f.pBig) }

// NewElt allocates a zero element.
func (f *Field) NewElt() []uint64 { return make([]uint64, f.n) }

// SetZero sets z = 0.
//
//cryptolint:hotpath
func (f *Field) SetZero(z []uint64) {
	for i := range z {
		z[i] = 0
	}
}

// SetOne sets z = 1 (Montgomery form R mod p).
//
//cryptolint:hotpath
func (f *Field) SetOne(z []uint64) { copy(z, f.one) }

// Set copies x into z.
//
//cryptolint:hotpath
func (f *Field) Set(z, x []uint64) { copy(z, x) }

// IsZero reports whether x = 0, accumulating over all limbs before the
// final collapse (no data-dependent early exit).
//
//cryptolint:hotpath
func (f *Field) IsZero(x []uint64) bool {
	var acc uint64
	for i := 0; i < f.n; i++ {
		acc |= x[i]
	}
	return acc == 0 //cryptolint:public (branch-free accumulator collapse; the bool verdict is the API)
}

// IsOne reports whether x = 1 (branch-free over the limbs).
//
//cryptolint:hotpath
func (f *Field) IsOne(x []uint64) bool {
	var acc uint64
	for i := 0; i < f.n; i++ {
		acc |= x[i] ^ f.one[i]
	}
	return acc == 0 //cryptolint:public (branch-free accumulator collapse; the bool verdict is the API)
}

// Equal reports whether x = y. Like IsZero it XOR-accumulates every limb
// pair before collapsing, so timing is independent of where the vectors
// first differ.
//
//cryptolint:hotpath
func (f *Field) Equal(x, y []uint64) bool {
	var acc uint64
	for i := 0; i < f.n; i++ {
		acc |= x[i] ^ y[i]
	}
	return acc == 0 //cryptolint:public (branch-free accumulator collapse; the bool verdict is the API)
}

// Select sets z = x if v = 1 and z = y if v = 0, in constant time
// (crypto/subtle's ConstantTimeSelect lifted to limb vectors).
//
//cryptolint:hotpath
func Select(z, x, y []uint64, v int) {
	m := uint64(0) - uint64(v&1)
	for i := range z {
		z[i] = (x[i] & m) | (y[i] &^ m)
	}
}

// nonzeroMask returns all-ones if v ≠ 0 and zero otherwise, branch-free.
func nonzeroMask(v uint64) uint64 {
	return -((v | -v) >> 63)
}

// ctSelect folds the CIOS/Add tail: z[i] = keep[i] if mask is all-ones,
// else z[i] unchanged (z already holds the other candidate).
//
//cryptolint:hotpath
func ctSelect(z, keep []uint64, mask uint64) {
	for i := range z {
		z[i] = (keep[i] & mask) | (z[i] &^ mask)
	}
}

// Add sets z = x + y mod p. Aliasing of z with x or y is allowed (all
// linear ops here are single-pass with carries in registers).
//
//cryptolint:hotpath
func (f *Field) Add(z, x, y []uint64) {
	n := f.n
	var sb [MaxLimbs]uint64
	s := sb[:n]
	var c uint64
	for i := 0; i < n; i++ {
		s[i], c = bits.Add64(x[i], y[i], c)
	}
	var b uint64
	for i := 0; i < n; i++ {
		z[i], b = bits.Sub64(s[i], f.p[i], b)
	}
	// Keep the raw sum only when it did not overflow (c = 0) and the
	// subtraction borrowed (sum < p): mask = (c < b).
	_, keepSum := bits.Sub64(c, b, 0)
	ctSelect(z, s, -keepSum)
}

// Double sets z = 2x mod p.
//
//cryptolint:hotpath
func (f *Field) Double(z, x []uint64) { f.Add(z, x, x) }

// Sub sets z = x − y mod p (aliasing allowed).
//
//cryptolint:hotpath
func (f *Field) Sub(z, x, y []uint64) {
	n := f.n
	var b uint64
	for i := 0; i < n; i++ {
		z[i], b = bits.Sub64(x[i], y[i], b)
	}
	// Add p back iff the subtraction borrowed, via a masked addend.
	m := -b
	var c uint64
	for i := 0; i < n; i++ {
		z[i], c = bits.Add64(z[i], f.p[i]&m, c)
	}
}

// Neg sets z = −x mod p (0 maps to 0).
//
//cryptolint:hotpath
func (f *Field) Neg(z, x []uint64) {
	n := f.n
	var acc uint64
	for i := 0; i < n; i++ {
		acc |= x[i]
	}
	m := nonzeroMask(acc) // all-ones unless x = 0 (p − 0 = p would be unreduced)
	var b uint64
	for i := 0; i < n; i++ {
		z[i], b = bits.Sub64(f.p[i], x[i], b)
		z[i] &= m
	}
}

// madd returns the high and low words of a·b + c + d. The sum cannot
// overflow 128 bits: (2^64−1)² + 2·(2^64−1) = 2^128 − 1.
//
//cryptolint:hotpath
func madd(a, b, c, d uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(a, b)
	var carry uint64
	lo, carry = bits.Add64(lo, c, 0)
	hi += carry
	lo, carry = bits.Add64(lo, d, 0)
	hi += carry
	return
}

// Mul sets z = x·y·R⁻¹ mod p — the Montgomery product, which is ordinary
// multiplication when all three live in Montgomery form. Aliasing of z
// with x and/or y is allowed. Dispatches to the unrolled 8-limb path for
// the paper shape; any other width takes the generic CIOS fallback.
//
//cryptolint:hotpath
func (f *Field) Mul(z, x, y []uint64) {
	if f.n == 8 {
		f.montMul8(z, x, y)
		return
	}
	f.montMulGeneric(z, x, y)
}

// Square sets z = x²·R⁻¹ mod p.
//
//cryptolint:hotpath
func (f *Field) Square(z, x []uint64) { f.Mul(z, x, x) }

// montMulGeneric is CIOS Montgomery multiplication for any width up to
// MaxLimbs: one fused pass interleaving the product accumulation of x·y[i]
// with the reduction step that cancels the lowest live limb.
//
//cryptolint:hotpath
func (f *Field) montMulGeneric(z, x, y []uint64) {
	n := f.n
	p := f.p
	var tb [MaxLimbs + 2]uint64
	t := tb[: n+2 : n+2]
	for i := 0; i <= n+1; i++ {
		t[i] = 0
	}
	for i := 0; i < n; i++ {
		// t += x · y[i]
		xi := y[i]
		var c uint64
		for j := 0; j < n; j++ {
			c, t[j] = madd(x[j], xi, t[j], c)
		}
		var c2 uint64
		t[n], c2 = bits.Add64(t[n], c, 0)
		t[n+1] = c2

		// m cancels t[0]; shift the vector down one limb while adding m·p.
		m := t[0] * f.n0
		c, _ = madd(m, p[0], t[0], 0)
		for j := 1; j < n; j++ {
			c, t[j-1] = madd(m, p[j], t[j], c)
		}
		t[n-1], c = bits.Add64(t[n], c, 0)
		t[n], _ = bits.Add64(t[n+1], c, 0)
	}
	// t < 2p over n+1 limbs: one conditional subtraction finishes.
	var b uint64
	for i := 0; i < n; i++ {
		z[i], b = bits.Sub64(t[i], p[i], b)
	}
	_, keepT := bits.Sub64(t[n], 0, b) // borrow ⇒ t < p ⇒ keep t
	ctSelect(z, t[:n], -keepT)
}

// FromBig converts a standard-form value into Montgomery form. The input
// must already be reduced: 0 ≤ x < p. This is an edge operation (key
// loading, hashing, deserialization) and the only fp entry point fed by
// math/big values.
func (f *Field) FromBig(z []uint64, x *big.Int) error {
	if x.Sign() < 0 || x.Cmp(f.pBig) >= 0 { //cryptolint:public (range-validity check against the public modulus at the sanctioned big.Int edge)
		return fmt.Errorf("fp: FromBig input out of range [0, p)")
	}
	limbsFromBig(z, x)
	f.Mul(z, z, f.rr) // x·R² · R⁻¹ = x·R
	return nil
}

// ToBig converts a Montgomery-form element back to a standard big.Int
// (edge operation; allocates its result by design).
func (f *Field) ToBig(x []uint64) *big.Int {
	var tb [2 * MaxLimbs]uint64
	t := tb[: 2*f.n : 2*f.n]
	copy(t, x) // high half stays zero: REDC(x) = x·R⁻¹, undoing the form
	var sb [MaxLimbs]uint64
	s := sb[:f.n]
	f.reduceWide(s, t)
	return limbsToBig(s)
}

// expWindow is the fixed window width of Exp: 2^4 − 2 table
// multiplications buy one multiplication per four exponent bits instead of
// one per set bit.
const expWindow = 4

// Exp sets z = x^e mod p (Montgomery in, Montgomery out) by MSB-first
// fixed-window exponentiation. The bit pattern of e is treated as public —
// the in-repo exponents are the modulus-derived p−2 of Inv and the
// (p+1)/4 square-root exponent — so zero windows are skipped.
//
//cryptolint:hotpath
func (f *Field) Exp(z, x []uint64, e *big.Int) {
	n := f.n
	var tb [1 << expWindow][MaxLimbs]uint64 // tb[d] = x^d
	copy(tb[1][:n], x)
	for d := 2; d < len(tb); d++ {
		f.Mul(tb[d][:n], tb[d-1][:n], x)
	}
	var rb [MaxLimbs]uint64
	r := rb[:n]
	f.SetOne(r)
	for i := (e.BitLen()+expWindow-1)/expWindow*expWindow - expWindow; i >= 0; i -= expWindow {
		d := 0
		for b := expWindow - 1; b >= 0; b-- {
			f.Square(r, r)
			d = d<<1 | int(e.Bit(i+b))
		}
		if d != 0 {
			f.Mul(r, r, tb[d][:n])
		}
	}
	copy(z, r)
}

// Inv sets z = x⁻¹ mod p via Fermat (x^(p−2)); ErrNotInvertible for x = 0.
// The exponent ladder is fixed by the public modulus, so unlike the
// extended-Euclidean big.Int.ModInverse it has no secret-dependent
// branching or allocation.
//
//cryptolint:hotpath
func (f *Field) Inv(z, x []uint64) error {
	if f.IsZero(x) {
		return ErrNotInvertible
	}
	f.Exp(z, x, f.pm2)
	return nil
}

// InvVarTime sets z = x⁻¹ mod p via math/big's binary extended GCD —
// several times faster than the Fermat ladder of Inv at 512-bit sizes, but
// variable-time and allocating. Use it only on public values (Miller line
// denominators, final-exponentiation inputs); secret material goes through
// Inv.
func (f *Field) InvVarTime(z, x []uint64) error {
	if f.IsZero(x) {
		return ErrNotInvertible
	}
	v := f.ToBig(x)
	if v.ModInverse(v, f.pBig) == nil {
		return ErrNotInvertible
	}
	return f.FromBig(z, v)
}

// --- wide (2n-limb) accumulation: the F_p² lazy-reduction layer ---

// Lazy reports whether the modulus leaves the two spare top bits that make
// single-reduction wide accumulation sound (see MulFp2).
func (f *Field) Lazy() bool { return f.lazy }

// mulWide sets t (2n limbs) = x·y, full product, no reduction.
//
//cryptolint:hotpath
func (f *Field) mulWide(t, x, y []uint64) {
	n := f.n
	for i := 0; i < 2*n; i++ {
		t[i] = 0
	}
	for i := 0; i < n; i++ {
		t[i+n] = addMulVVW(t[i:i+n], x, y[i])
	}
}

// addMulVVW sets z += x·y for a single word y and returns the carry out of
// the top; len(x) = len(z).
//
//cryptolint:hotpath
func addMulVVW(z, x []uint64, y uint64) (carry uint64) {
	for i := 0; i < len(z); i++ {
		hi, lo := bits.Mul64(x[i], y)
		var c uint64
		lo, c = bits.Add64(lo, carry, 0)
		hi += c
		z[i], c = bits.Add64(z[i], lo, 0)
		carry = hi + c
	}
	return
}

// reduceWide performs the Montgomery reduction z = t·R⁻¹ mod p of a
// 2n-limb accumulator t < p·R, destroying t. This is the REDC half of a
// Montgomery multiplication, split out so the F_p² tower can sum several
// wide products first and reduce once.
//
//cryptolint:hotpath
func (f *Field) reduceWide(z, t []uint64) {
	n := f.n
	p := f.p
	var c uint64
	for i := 0; i < n; i++ {
		m := t[i] * f.n0
		c2 := addMulVVW(t[i:i+n], p, m)
		nx, c3 := bits.Add64(t[i+n], c, 0)
		nx, c4 := bits.Add64(nx, c2, 0)
		t[i+n] = nx
		c = c3 + c4
	}
	// Result in t[n:2n] with top carry c; t/R < 2p, conditional subtract.
	var b uint64
	for i := 0; i < n; i++ {
		z[i], b = bits.Sub64(t[i+n], p[i], b)
	}
	_, keepT := bits.Sub64(c, 0, b)
	ctSelect(z, t[n:2*n], -keepT)
}

// addWide sets t += u over 2n limbs (caller guarantees no overflow; all
// lazy-path sums are bounded below p·R < 2^(128n)/4).
//
//cryptolint:hotpath
func addWide(t, u []uint64) {
	var c uint64
	for i := 0; i < len(t); i++ {
		t[i], c = bits.Add64(t[i], u[i], c)
	}
}

// subWide sets t −= u over 2n limbs (caller guarantees t ≥ u).
//
//cryptolint:hotpath
func subWide(t, u []uint64) {
	var b uint64
	for i := 0; i < len(t); i++ {
		t[i], b = bits.Sub64(t[i], u[i], b)
	}
}

// MulFp2 computes the product (zr + zi·i) = (ar + ai·i)·(br + bi·i) in
// F_p[i]/(i² + 1) — the quadratic extension internal/gf exposes — with the
// Karatsuba split
//
//	v0 = ar·br, v1 = ai·bi, v2 = (ar+ai)·(br+bi)
//	zr = v0 − v1,           zi = v2 − v0 − v1
//
// i.e. three base multiplications instead of four. When the modulus has
// two spare top bits (Lazy), the three products are accumulated at full
// double width and each output coordinate pays exactly one Montgomery
// reduction: zr reduces v0 + 2p² − v1 (the 2p² offset keeps the
// accumulator non-negative; it is ≡ 0 mod p and the bound 3p² < p·R holds
// by the spare bits), zi reduces v2 − v0 − v1 ≥ 0 directly (< 4p² < p·R).
// Without spare bits each product is reduced individually — still three
// reductions against schoolbook's four multiplications.
//
// Any of zr, zi may alias any input coordinate.
//
//cryptolint:hotpath
func (f *Field) MulFp2(zr, zi, ar, ai, br, bi []uint64) {
	n := f.n
	var sb1, sb2 [MaxLimbs]uint64
	s1 := sb1[:n] // ar + ai
	s2 := sb2[:n] // br + bi
	if f.lazy {
		// Plain (non-modular) sums: bounded by 2p, safe for the 4p² product
		// bound. Carry out of the top limb is impossible with 2 spare bits.
		var c uint64
		for i := 0; i < n; i++ {
			s1[i], c = bits.Add64(ar[i], ai[i], c)
		}
		c = 0
		for i := 0; i < n; i++ {
			s2[i], c = bits.Add64(br[i], bi[i], c)
		}
		var w0, w1, w2 [2 * MaxLimbs]uint64
		t0 := w0[: 2*n : 2*n]
		t1 := w1[: 2*n : 2*n]
		t2 := w2[: 2*n : 2*n]
		f.mulWide(t0, ar, br)
		f.mulWide(t1, ai, bi)
		f.mulWide(t2, s1, s2)
		subWide(t2, t0) // t2 = cross products + t1
		subWide(t2, t1) // ≥ 0 by the Karatsuba identity
		addWide(t0, f.p2w)
		subWide(t0, t1) // v0 − v1 + 2p² ≥ 0
		f.reduceWide(zr, t0)
		f.reduceWide(zi, t2)
		return
	}
	// Fully reduced Karatsuba: three CIOS products, modular linear fixes.
	f.Add(s1, ar, ai)
	f.Add(s2, br, bi)
	var vb0, vb1, vb2 [MaxLimbs]uint64
	v0 := vb0[:n]
	v1 := vb1[:n]
	v2 := vb2[:n]
	f.Mul(v0, ar, br)
	f.Mul(v1, ai, bi)
	f.Mul(v2, s1, s2)
	f.Sub(zr, v0, v1)
	f.Sub(v2, v2, v0)
	f.Sub(zi, v2, v1)
}

// SquareFp2 computes (zr + zi·i) = (ar + ai·i)² via
// (a+bi)² = (a+b)(a−b) + (2ab)i — two base multiplications. Outputs may
// alias inputs.
//
//cryptolint:hotpath
func (f *Field) SquareFp2(zr, zi, ar, ai []uint64) {
	n := f.n
	var sb, db, rb [MaxLimbs]uint64
	s := sb[:n]
	d := db[:n]
	r := rb[:n]
	f.Add(s, ar, ai)
	f.Sub(d, ar, ai)
	f.Mul(r, ar, ai) // before zr/zi clobber aliased inputs
	f.Mul(zr, s, d)
	f.Double(zi, r)
}

// --- limb ↔ big.Int edges (allocation confined to ToBig/limbsToBig) ---

// limbsFromBig fills z (little-endian limbs, zero-padded) from a
// non-negative x that fits len(z) limbs.
func limbsFromBig(z []uint64, x *big.Int) {
	for i := range z {
		z[i] = 0
	}
	words := x.Bits()
	if bits.UintSize == 64 {
		for i, w := range words {
			z[i] = uint64(w)
		}
		return
	}
	for i, w := range words { // 32-bit big.Word
		z[i/2] |= uint64(w) << (32 * uint(i%2))
	}
}

// limbsToBig builds a big.Int from little-endian limbs.
func limbsToBig(x []uint64) *big.Int {
	if bits.UintSize == 64 {
		words := make([]big.Word, len(x))
		for i, w := range x {
			words[i] = big.Word(w)
		}
		return new(big.Int).SetBits(words)
	}
	words := make([]big.Word, 2*len(x))
	for i, w := range x {
		words[2*i] = big.Word(uint32(w))
		words[2*i+1] = big.Word(uint32(w >> 32))
	}
	return new(big.Int).SetBits(words)
}
