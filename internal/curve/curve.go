// Package curve implements the supersingular elliptic curve
//
//	E(F_p): y² = x³ + x,   p ≡ 3 (mod 4)
//
// used by the paper's pairing-based schemes. The curve is supersingular with
// #E(F_p) = p + 1 and embedding degree 2; the distortion map
// φ(x, y) = (−x, i·y) sends points into E(F_p²) and makes the modified Tate
// pairing ê(P, Q) = e(P, φ(Q)) non-degenerate on a single cyclic subgroup.
//
// The group G1 of the schemes is the order-q subgroup, where q is a prime
// divisor of p + 1 chosen at parameter-generation time (see package pairing).
//
// The public Point API is affine and immutable (auditable, and the
// denominator-tracking Miller oracle needs affine line slopes). Every
// group operation beyond a single chord-and-tangent step runs on one
// arithmetic layer underneath: Jacobian coordinates over internal/fp
// Montgomery limb vectors (limb.go). On it sit the w-NAF ScalarMul, the
// fixed-base comb Precomputed, hash-to-point's cofactor clearing, the
// subgroup check, the Pippenger MSM and ScalarMulCT, the constant-time
// fixed-window ladder for secret scalars. Outputs are normalized back to
// canonical affine coordinates, bit-identical to the affine double-and-add
// ladder ScalarMulBinary, which survives as the differential-test oracle.
package curve

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"

	"repro/internal/fp"
	"repro/internal/mathx"
)

var (
	// ErrNotOnCurve is returned when decoding or constructing a point whose
	// coordinates do not satisfy the curve equation.
	ErrNotOnCurve = errors.New("curve: point is not on the curve")

	// ErrHashToPointFailed is returned when try-and-increment hashing
	// exhausts its counter budget (cryptographically negligible).
	ErrHashToPointFailed = errors.New("curve: hash-to-point failed after 255 attempts")
)

// Curve is the supersingular curve y² = x³ + x over F_p together with the
// prime subgroup order q and cofactor c = (p+1)/q. Immutable and safe for
// concurrent use after construction.
type Curve struct {
	p *big.Int //cryptolint:public (curve parameters)
	q *big.Int //cryptolint:public (curve parameters)
	c *big.Int //cryptolint:public (curve parameters)

	// field is the limb field every group operation runs on; the rest are the
	// constants the limb kernels derive from the parameters once, in New.
	field   *fp.Field //cryptolint:public (the field of the public prime p)
	sqrtExp *big.Int  //cryptolint:public ((p+1)/4, the p ≡ 3 (mod 4) square-root exponent)
	qW, cW  uint      // w-NAF widths of the q and c recodings
	qNAF    []int8    //cryptolint:public (w-NAF digits of q, least significant first)
	cNAF    []int8    //cryptolint:public (w-NAF digits of the cofactor)
}

// New constructs the curve. It validates that p ≡ 3 (mod 4), that
// q·c = p + 1 with q prime (probabilistically), and that the limb backend
// can host p (at most fp.MaxLimbs words).
func New(p, q *big.Int) (*Curve, error) {
	if p.Bit(0) != 1 || p.Bit(1) != 1 {
		return nil, fmt.Errorf("curve: p must be ≡ 3 (mod 4)")
	}
	pPlus1 := new(big.Int).Add(p, big.NewInt(1))
	c, rem := new(big.Int).DivMod(pPlus1, q, new(big.Int))
	if rem.Sign() != 0 {
		return nil, fmt.Errorf("curve: q does not divide p + 1")
	}
	if !q.ProbablyPrime(20) {
		return nil, fmt.Errorf("curve: subgroup order q is not prime")
	}
	F, err := fp.New(p)
	if err != nil {
		return nil, fmt.Errorf("curve: %w", err)
	}
	qW, cW := wnafWidth(q.BitLen()), wnafWidth(c.BitLen())
	return &Curve{
		p:       new(big.Int).Set(p),
		q:       new(big.Int).Set(q),
		c:       c,
		field:   F,
		sqrtExp: new(big.Int).Rsh(pPlus1, 2),
		qW:      qW,
		cW:      cW,
		qNAF:    wnaf(q, qW),
		cNAF:    wnaf(c, cW),
	}, nil
}

// P returns a copy of the field characteristic.
func (c *Curve) P() *big.Int { return new(big.Int).Set(c.p) }

// Q returns a copy of the subgroup order.
func (c *Curve) Q() *big.Int { return new(big.Int).Set(c.q) }

// Cofactor returns a copy of the cofactor (p+1)/q.
func (c *Curve) Cofactor() *big.Int { return new(big.Int).Set(c.c) }

// CoordinateSize returns the byte length of one field coordinate.
func (c *Curve) CoordinateSize() int { return (c.p.BitLen() + 7) / 8 }

// Point is a point of E(F_p) in affine coordinates, or the point at
// infinity. Points are immutable: all group operations return new points.
type Point struct {
	curve *Curve //cryptolint:public (curve parameters)
	x, y  *big.Int
	inf   bool

	// g1 memoizes the subgroup-membership verdict (0 unknown, 1 in G1,
	// 2 outside). Immutability makes the verdict permanent; the atomic
	// makes concurrent validation of a shared point race-free. Benign
	// duplicate stores write the same value.
	g1 atomic.Int32
}

// Infinity returns the identity element O.
func (c *Curve) Infinity() *Point {
	return &Point{curve: c, inf: true}
}

// NewPoint constructs the affine point (x, y), validating the curve
// equation.
func (c *Curve) NewPoint(x, y *big.Int) (*Point, error) {
	xm := new(big.Int).Mod(x, c.p)
	ym := new(big.Int).Mod(y, c.p)
	if !c.isOnCurve(xm, ym) {
		return nil, ErrNotOnCurve
	}
	return &Point{curve: c, x: xm, y: ym}, nil
}

func (c *Curve) isOnCurve(x, y *big.Int) bool {
	// y² ≟ x³ + x
	lhs := new(big.Int).Mul(y, y)
	lhs.Mod(lhs, c.p)
	rhs := new(big.Int).Mul(x, x)
	rhs.Mul(rhs, x)
	rhs.Add(rhs, x)
	rhs.Mod(rhs, c.p)
	return lhs.Cmp(rhs) == 0
}

// IsInfinity reports whether the point is the identity.
func (pt *Point) IsInfinity() bool { return pt.inf }

// X returns a copy of the affine x-coordinate; nil for O.
func (pt *Point) X() *big.Int {
	if pt.inf {
		return nil
	}
	return new(big.Int).Set(pt.x)
}

// Y returns a copy of the affine y-coordinate; nil for O.
func (pt *Point) Y() *big.Int {
	if pt.inf {
		return nil
	}
	return new(big.Int).Set(pt.y)
}

// Curve returns the curve the point lives on.
func (pt *Point) Curve() *Curve { return pt.curve }

// Equal reports whether two points are the same group element.
//
//cryptolint:vartime (early-exit big.Int comparison; no caller compares a secret point with attacker-chosen input)
func (pt *Point) Equal(other *Point) bool {
	if pt.inf || other.inf {
		return pt.inf == other.inf
	}
	return pt.x.Cmp(other.x) == 0 && pt.y.Cmp(other.y) == 0
}

// Neg returns −P.
//
//cryptolint:vartime (affine big.Int negation of public points)
func (pt *Point) Neg() *Point {
	if pt.inf {
		return pt
	}
	ny := new(big.Int).Neg(pt.y)
	ny.Mod(ny, pt.curve.p)
	out := &Point{curve: pt.curve, x: new(big.Int).Set(pt.x), y: ny}
	// −P has the same order as P: the subgroup verdict carries over.
	out.g1.Store(pt.g1.Load())
	return out
}

// Add returns P + Q using the affine chord-and-tangent rules.
//
//cryptolint:vartime (affine big.Int group law; online callers add points whose sum is published, e.g. the two halves of a released signature)
func (pt *Point) Add(other *Point) *Point {
	c := pt.curve
	if pt.inf {
		return other
	}
	if other.inf {
		return pt
	}
	if pt.x.Cmp(other.x) == 0 {
		sum := new(big.Int).Add(pt.y, other.y)
		sum.Mod(sum, c.p)
		if sum.Sign() == 0 {
			return c.Infinity() // P + (−P)
		}
		return pt.Double()
	}
	// λ = (y2 − y1)/(x2 − x1)
	num := new(big.Int).Sub(other.y, pt.y)
	den := new(big.Int).Sub(other.x, pt.x)
	den.ModInverse(den, c.p)
	lambda := num.Mul(num, den)
	lambda.Mod(lambda, c.p)
	out := c.chord(pt, other, lambda)
	if pt.g1.Load() == 1 && other.g1.Load() == 1 {
		out.g1.Store(1) // G1 is closed under addition
	}
	return out
}

// Double returns 2P.
//
//cryptolint:vartime (affine big.Int group law on public points)
func (pt *Point) Double() *Point {
	c := pt.curve
	if pt.inf {
		return pt
	}
	if pt.y.Sign() == 0 {
		return c.Infinity() // order-2 point
	}
	// λ = (3x² + 1)/(2y)   (curve a-coefficient is 1)
	num := new(big.Int).Mul(pt.x, pt.x)
	num.Mul(num, big.NewInt(3))
	num.Add(num, big.NewInt(1))
	num.Mod(num, c.p)
	den := new(big.Int).Lsh(pt.y, 1)
	den.ModInverse(den, c.p)
	lambda := num.Mul(num, den)
	lambda.Mod(lambda, c.p)
	return pt.multiple(c.chord(pt, pt, lambda))
}

// multiple returns out, a multiple of pt, carrying over a known G1
// verdict: every multiple of a G1 element is in G1. (A verdict of
// "outside" does not carry over — a multiple may fall inside.)
func (pt *Point) multiple(out *Point) *Point {
	if pt.g1.Load() == 1 && !out.inf {
		out.g1.Store(1)
	}
	return out
}

// chord completes an addition given the line slope λ through p1 and p2.
//
//cryptolint:vartime (the affine group law behind Add and Double)
func (c *Curve) chord(p1, p2 *Point, lambda *big.Int) *Point {
	x3 := new(big.Int).Mul(lambda, lambda)
	x3.Sub(x3, p1.x)
	x3.Sub(x3, p2.x)
	x3.Mod(x3, c.p)
	y3 := new(big.Int).Sub(p1.x, x3)
	y3.Mul(y3, lambda)
	y3.Sub(y3, p1.y)
	y3.Mod(y3, c.p)
	return &Point{curve: c, x: x3, y: y3}
}

// InSubgroup reports whether the point lies in the prime-order subgroup G1,
// i.e. q·P = O. The verdict is computed with the ladder of subgroup.go (no
// final inversion, shared q recoding) and memoized on the point, so
// re-validating a long-lived element is a single atomic load.
func (pt *Point) InSubgroup() bool {
	if pt.inf {
		return true // O is in every subgroup
	}
	if s := pt.g1.Load(); s != 0 {
		return s == 1
	}
	in := pt.curve.inSubgroup(pt)
	if in {
		pt.g1.Store(1)
	} else {
		pt.g1.Store(2)
	}
	return in
}

// ErrNotInSubgroup is returned by Validate for points of E(F_p) outside the
// order-q working subgroup G1 (e.g. cofactor-order points).
var ErrNotInSubgroup = errors.New("curve: point is not in the order-q subgroup")

// Validate checks that the point is a usable G1 element for untrusted
// inputs: not the identity and inside the order-q subgroup. Unmarshal only
// guarantees membership in the full group E(F_p), whose cofactor-order
// components are outside the security argument — every network-facing
// decode must call this (see wire.UnmarshalG1).
func (pt *Point) Validate() error {
	if pt.IsInfinity() {
		return fmt.Errorf("%w: point at infinity", ErrNotInSubgroup)
	}
	if !pt.InSubgroup() {
		return ErrNotInSubgroup
	}
	return nil
}

// RandomPoint returns a uniformly random point of the full group E(F_p)
// (not necessarily in G1) by sampling x until x³ + x is a residue.
func (c *Curve) RandomPoint(rng io.Reader) (*Point, error) {
	for {
		x, err := mathx.RandomInRange(rng, big.NewInt(0), c.p)
		if err != nil {
			return nil, err
		}
		if y, ok := c.liftX(x); ok {
			return &Point{curve: c, x: x, y: y}, nil
		}
	}
}

// RandomG1 returns a uniformly random nonidentity point of the order-q
// subgroup (cofactor-cleared random point).
func (c *Curve) RandomG1(rng io.Reader) (*Point, error) {
	for {
		pt, err := c.RandomPoint(rng)
		if err != nil {
			return nil, err
		}
		if g := c.clearCofactor(pt); !g.IsInfinity() {
			return g, nil
		}
	}
}

// HashToPoint maps an arbitrary byte string into the order-q subgroup G1
// using domain-separated try-and-increment (the MapToGroup construction of
// the BLS short-signature paper) followed by cofactor clearing. This is the
// H1 oracle of the Boneh-Franklin scheme and the h(·) oracle of the GDH
// signature.
func (c *Curve) HashToPoint(domain string, msg []byte) (*Point, error) {
	F := c.field
	a := newLimbArena(F, 7+arenaScratchElts+wnafArenaElts)
	x, y := a.elt(), a.elt()
	if _, err := c.hashTry(domain, msg, x, y, a.elt(), a.elt()); err != nil {
		return nil, err
	}
	acc := a.jac()
	c.wnafMul(&a, &acc, x, y, c.cNAF, c.cW)
	s := a.scratch()
	out := c.ljToPoint(&acc, &s)
	if !out.inf {
		out.g1.Store(1) // cofactor-cleared by construction
	}
	return out, nil
}

// HashToPointUncleared is HashToPoint without the final cofactor
// multiplication: it returns the raw try-and-increment point T ∈ E(F_p)
// with HashToPoint(domain, msg) = c·T for cofactor c. Batch verifiers use
// it to defer and merge cofactor clearing across many hashes
// (Σ rᵢ·(c·Tᵢ) = c·Σ rᵢ·Tᵢ); anything needing a single subgroup element
// should call HashToPoint.
//
// A candidate whose cleared image would be the identity (T of cofactor
// order, probability q/(p+1) < 2⁻³⁵⁰ per attempt) is accepted here — the
// check would cost the very scalar multiplication this variant exists to
// skip. HashToPoint inherits the same behaviour: its output is the identity
// with that probability, which no caller can observe.
func (c *Curve) HashToPointUncleared(domain string, msg []byte) (*Point, error) {
	a := newLimbArena(c.field, 4)
	y := a.elt()
	x, err := c.hashTry(domain, msg, a.elt(), y, a.elt(), a.elt())
	if err != nil {
		return nil, err
	}
	return &Point{curve: c, x: x, y: c.field.ToBig(y)}, nil
}

// hashTry runs the try-and-increment search: for ctr = 0, 1, … it expands
// (domain, ctr, msg) into a candidate x (|p| + 64 bits reduced mod p, so
// the bias is negligible) until x³ + x is a square, then takes the
// principal root y, negated when the digest's next byte is odd so the map
// does not favour the "small" root. It leaves the Montgomery-form point in
// (xm, ym) and returns the canonical x; t and chk are scratch.
func (c *Curve) hashTry(domain string, msg []byte, xm, ym, t, chk []uint64) (*big.Int, error) {
	F := c.field
	size := c.CoordinateSize()
	x := new(big.Int)
	for ctr := 0; ctr < 256; ctr++ {
		digest := expandDigest(domain, uint8(ctr), msg, size+16)
		x.SetBytes(digest[:size+8])
		x.Mod(x, c.p)
		_ = F.FromBig(xm, x) // reduced above: cannot fail
		curveRHS(F, t, xm)
		if !c.sqrt(ym, t, chk) {
			continue
		}
		if digest[size+8]&1 == 1 {
			F.Neg(ym, ym)
		}
		return x, nil
	}
	return nil, ErrHashToPointFailed
}

// expandDigest produces at least n bytes of SHA-256 output bound to
// (domain, ctr, msg) using simple counter-mode expansion. A single hash
// state is reset and reused across blocks and the header is assembled in
// one stack buffer, so each call allocates only the output slice.
func expandDigest(domain string, ctr uint8, msg []byte, n int) []byte {
	out := make([]byte, 0, ((n+31)/32)*32)
	h := sha256.New()
	var hdr [5]byte
	hdr[0] = ctr
	for block := uint32(0); len(out) < n; block++ {
		h.Reset()
		binary.BigEndian.PutUint32(hdr[1:], block)
		io.WriteString(h, domain)
		h.Write(hdr[:1])
		h.Write(hdr[1:])
		h.Write(msg)
		out = h.Sum(out)
	}
	return out[:n]
}

// Marshal serializes the point in compressed form: a one-byte tag (0 for O,
// 2 or 3 for the parity of y) followed by the fixed-width x-coordinate.
// This is the "point compression" the paper invokes when comparing key
// sizes with IB-mRSA.
//
//cryptolint:vartime (serialization edge: the encoding is the published form of the point)
func (pt *Point) Marshal() []byte {
	size := pt.curve.CoordinateSize()
	out := make([]byte, 1+size)
	if pt.inf {
		return out
	}
	out[0] = byte(2 + pt.y.Bit(0))
	pt.x.FillBytes(out[1:])
	return out
}

// Unmarshal parses a compressed point produced by Marshal, recomputing y
// from the curve equation and the parity bit.
//
//cryptolint:vartime (decode edge: big.Int range and parity checks on the encoding; the square root itself runs on fp)
func (c *Curve) Unmarshal(data []byte) (*Point, error) {
	size := c.CoordinateSize()
	if len(data) != 1+size {
		return nil, fmt.Errorf("curve: compressed point must be %d bytes, got %d", 1+size, len(data))
	}
	switch data[0] {
	case 0:
		for _, b := range data[1:] {
			if b != 0 {
				return nil, fmt.Errorf("curve: malformed infinity encoding")
			}
		}
		return c.Infinity(), nil
	case 2, 3:
		x := new(big.Int).SetBytes(data[1:])
		if x.Cmp(c.p) >= 0 {
			return nil, fmt.Errorf("curve: x-coordinate out of range")
		}
		y, ok := c.liftX(x)
		if !ok {
			return nil, ErrNotOnCurve
		}
		if y.Bit(0) != uint(data[0]-2) && y.Sign() != 0 {
			y.Sub(c.p, y)
		}
		return &Point{curve: c, x: x, y: y}, nil
	default:
		return nil, fmt.Errorf("curve: unknown compression tag 0x%02x", data[0]) //cryptolint:public (the format tag byte, not coordinate material)
	}
}

// String renders the point for debugging.
func (pt *Point) String() string {
	if pt.inf {
		return "O"
	}
	return fmt.Sprintf("(%v, %v)", pt.x, pt.y)
}
