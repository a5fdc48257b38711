// The subgroup-membership ladder: q·P = O evaluated on the limb Jacobian
// layer, with the verdict cached on the Point.
//
// Every network-facing decode funnels through Point.Validate, whose cost is
// one full-order scalar multiplication — the dominant term of batch
// verification and share ingestion. Two properties make it much cheaper
// than a generic ScalarMul: the scalar is the fixed public order q (its
// w-NAF recoding is computed once per curve and shared), and only the
// identity-or-not verdict is needed, so the final Jacobian-to-affine
// inversion is skipped entirely — the ladder ends at a Z = 0 test.
//
// Points are immutable, so the verdict never changes; InSubgroup memoizes
// it in an atomic tri-state on the Point, making repeated validation of a
// long-lived element (a cached public key, a batch re-verified under a new
// random combination) free after the first check.
package curve

// inSubgroup reports whether q·pt = O using the cached q recoding. pt must
// be a non-identity affine point.
func (c *Curve) inSubgroup(pt *Point) bool {
	F := c.field
	a := newLimbArena(F, 2+3+wnafArenaElts)
	bx, by := a.elt(), a.elt()
	c.loadAffine(pt, bx, by)
	acc := a.jac()
	c.wnafMul(&a, &acc, bx, by, c.qNAF, c.qW)
	return F.IsZero(acc.z)
}
