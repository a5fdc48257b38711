package curve

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"math/big"
	mrand "math/rand"
	"testing"
)

// randScalarBits returns a uniform scalar of up to bits bits (occasionally
// negative to exercise that path).
func randScalarBits(t testing.TB, bits int, i int) *big.Int {
	t.Helper()
	k, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
	if err != nil {
		t.Fatal(err)
	}
	if i%7 == 0 {
		k.Neg(k)
	}
	return k
}

// sameEncoding fails unless got and want are the same point with the same
// compressed encoding.
func sameEncoding(t testing.TB, what string, got, want *Point) {
	t.Helper()
	if !got.Equal(want) || string(got.Marshal()) != string(want.Marshal()) {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
}

// edgeScalars returns the boundary scalars around the group order: 0, 1,
// 2, q−1, q, q+1, their negations and values wider than q.
func edgeScalars(c *Curve) []*big.Int {
	q := c.Q()
	ks := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		new(big.Int).Sub(q, big.NewInt(1)), new(big.Int).Set(q), new(big.Int).Add(q, big.NewInt(1)),
		new(big.Int).Lsh(q, 1),                                                             // 2q
		new(big.Int).Add(new(big.Int).Lsh(q, 7), big.NewInt(5)),                            // k > q
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(q.BitLen())), big.NewInt(1)), // 2^|q| − 1
		new(big.Int).Lsh(big.NewInt(1), uint(c.P().BitLen()+3)),                            // wider than p
	}
	for _, k := range ks[1:7] {
		ks = append(ks, new(big.Int).Neg(k))
	}
	return ks
}

// testCurves returns the toy and paper curves.
func testCurves(t testing.TB) map[string]*Curve {
	return map[string]*Curve{"toy": toyCurve(t), "paper": paperCurve(t)}
}

// TestScalarMulDifferential asserts that the limb w-NAF ScalarMul and the
// affine double-and-add oracle produce bit-identical points on ~1000
// random (point, scalar) pairs of the toy curve, including scalars wider
// than q and points outside G1, and on a smaller paper-size sample.
func TestScalarMulDifferential(t *testing.T) {
	for name, c := range testCurves(t) {
		iters, maxBits := 1000, 120
		if name == "paper" {
			iters, maxBits = 40, 600
		}
		points := make([]*Point, 10)
		for i := range points {
			P, err := c.RandomPoint(rand.Reader) // full group, not just G1
			if err != nil {
				t.Fatal(err)
			}
			points[i] = P
		}
		for i := 0; i < iters; i++ {
			P := points[i%len(points)]
			bits := 8 + (i*37)%maxBits // from tiny scalars past |q| up to > |p|
			k := randScalarBits(t, bits, i)
			sameEncoding(t, name+" k="+k.String(), P.ScalarMul(k), P.ScalarMulBinary(k))
		}
	}
}

// TestScalarMulEdgeCases pins the boundary scalars on G1 points of both
// curves and, on the toy curve, cofactor-order and order-2 bases.
func TestScalarMulEdgeCases(t *testing.T) {
	for name, c := range testCurves(t) {
		P, err := c.RandomG1(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range edgeScalars(c) {
			sameEncoding(t, name+" G1 k="+k.String(), P.ScalarMul(k), P.ScalarMulBinary(k))
		}
		if !P.ScalarMul(c.Q()).IsInfinity() {
			t.Errorf("%s: q·P ≠ O for P ∈ G1", name)
		}
		if !P.ScalarMul(big.NewInt(-1)).Equal(P.Neg()) {
			t.Errorf("%s: (−1)·P ≠ −P", name)
		}
		if !c.Infinity().ScalarMul(big.NewInt(5)).IsInfinity() {
			t.Errorf("%s: 5·O ≠ O", name)
		}
	}

	c := toyCurve(t)
	small := cofactorPoint(t, c)
	for _, k := range edgeScalars(c) {
		sameEncoding(t, "cofactor-order k="+k.String(), small.ScalarMul(k), small.ScalarMulBinary(k))
	}
	// The order-2 point (0, 0) is on y² = x³ + x; doubling chains through it
	// must collapse to O, not crash.
	two, err := c.NewPoint(big.NewInt(0), big.NewInt(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range append(edgeScalars(c), big.NewInt(7), big.NewInt(-3)) {
		sameEncoding(t, "order-2 k="+k.String(), two.ScalarMul(k), two.ScalarMulBinary(k))
	}
	if !two.ScalarMul(big.NewInt(2)).IsInfinity() {
		t.Error("2·(0,0) ≠ O")
	}
	if !two.ScalarMul(big.NewInt(7)).Equal(two) {
		t.Error("7·(0,0) ≠ (0,0)")
	}
}

// cofactorPoint returns a nonidentity point of E(F_p) outside G1: q·R for a
// random R lands in the cofactor-order component.
func cofactorPoint(t testing.TB, c *Curve) *Point {
	t.Helper()
	for {
		R, err := c.RandomPoint(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if small := R.ScalarMul(c.Q()); !small.IsInfinity() {
			return small
		}
	}
}

// TestPrecomputedDifferential asserts that fixed-base comb multiplication
// agrees with the w-NAF path on random and boundary scalars, on both
// curves.
func TestPrecomputedDifferential(t *testing.T) {
	for name, c := range testCurves(t) {
		P, err := c.RandomG1(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := NewPrecomputed(P, c.Q())
		if err != nil {
			t.Fatal(err)
		}
		iters := 1000
		if name == "paper" {
			iters = 50
		}
		ks := edgeScalars(c)
		for i := 0; i < iters; i++ {
			ks = append(ks, randScalarBits(t, 8+i%(c.Q().BitLen()+30), i)) // k > q and k < 0 reduce mod the order
		}
		for _, k := range ks {
			sameEncoding(t, name+" comb k="+k.String(), pc.ScalarMul(k), P.ScalarMul(new(big.Int).Mod(k, c.Q())))
		}
		if pc.TableSize() != (c.Q().BitLen()+precompWindow-1)/precompWindow*(1<<precompWindow-1) {
			t.Errorf("%s: unexpected table size %d", name, pc.TableSize())
		}
	}

	// A small-order base with its true order: table entries collapse to O.
	c := toyCurve(t)
	two, _ := c.NewPoint(big.NewInt(0), big.NewInt(0))
	pc, err := NewPrecomputed(two, big.NewInt(2))
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(-3); k < 6; k++ {
		sameEncoding(t, "order-2 comb", pc.ScalarMul(big.NewInt(k)), two.ScalarMulBinary(big.NewInt(k)))
	}
}

func TestPrecomputedRejectsBadInput(t *testing.T) {
	c := toyCurve(t)
	if _, err := NewPrecomputed(c.Infinity(), c.Q()); err == nil {
		t.Error("precomputing O must fail")
	}
	P, _ := c.RandomG1(rand.Reader)
	if _, err := NewPrecomputed(P, big.NewInt(0)); err == nil {
		t.Error("non-positive order must fail")
	}
}

// TestScalarMulCTDifferential checks the constant-time ladder against the
// w-NAF path: random and boundary scalars on G1 points of both curves
// (out-of-range scalars reduce mod q, which G1 cannot tell apart), and
// exact k·P for k < 2^|q| on the toy curve's cofactor-order and order-2
// points, whose tables hold the identity and whose additions hit the
// doubling case.
func TestScalarMulCTDifferential(t *testing.T) {
	for name, c := range testCurves(t) {
		P, err := c.RandomG1(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		iters := 300
		if name == "paper" {
			iters = 30
		}
		ks := edgeScalars(c)
		for i := 0; i < iters; i++ {
			ks = append(ks, randScalarBits(t, 1+i%(c.Q().BitLen()+8), i))
		}
		for _, k := range ks {
			sameEncoding(t, name+" ct k="+k.String(), P.ScalarMulCT(k), P.ScalarMul(k))
		}
		if !c.Infinity().ScalarMulCT(big.NewInt(3)).IsInfinity() {
			t.Errorf("%s: ct 3·O ≠ O", name)
		}
	}

	c := toyCurve(t)
	two, _ := c.NewPoint(big.NewInt(0), big.NewInt(0))
	bases := []*Point{two, cofactorPoint(t, c), cofactorPoint(t, c)}
	limit := new(big.Int).Lsh(big.NewInt(1), uint(c.Q().BitLen()))
	for _, B := range bases {
		for i := 0; i < 200; i++ {
			k, err := rand.Int(rand.Reader, limit)
			if err != nil {
				t.Fatal(err)
			}
			if i < 40 {
				k.SetInt64(int64(i)) // every small digit pattern, including k = 0
			}
			sameEncoding(t, "small-order ct k="+k.String(), B.ScalarMulCT(k), B.ScalarMul(k))
		}
	}
}

// hashVectors are HashToPoint outputs (compressed) recorded from the
// big.Int implementation this layer replaced; the limb path must reproduce
// them bit for bit.
var hashVectors = []struct {
	curve, domain, msg, want string
}{
	{"toy", "BF-IBE-H1", "", "038f759f44f0484e67c9bc575b"},
	{"toy", "BF-IBE-H1", "alice@example.com", "03435b1895c2594ebbc4aff058"},
	{"toy", "BF-IBE-H1", "the document", "037eae1567c2c036ba9ffe9555"},
	{"toy", "BF-IBE-H1", "\x00\x01\x02", "035429d5e51595ebf6eb826089"},
	{"toy", "GDH-SIG-H", "", "03a8a06e45cac0bc6f6958f29a"},
	{"toy", "GDH-SIG-H", "alice@example.com", "03c1c7ee2ef47a745d8be94c01"},
	{"toy", "GDH-SIG-H", "the document", "02a3c42faad752d4664fcd7b4f"},
	{"toy", "GDH-SIG-H", "\x00\x01\x02", "034a1e7b4b2b4e94eff88e1381"},
	{"toy", "", "", "02314424b891d52b6422b883ff"},
	{"toy", "", "alice@example.com", "038b10691bd23afcb1e82c1c8a"},
	{"toy", "", "the document", "0233cdda7449074998509572fa"},
	{"toy", "", "\x00\x01\x02", "0396106b63b2bf34da6365c802"},
	{"paper", "BF-IBE-H1", "", "039b03c061d0c1fe1f58f7273168182513e20c77d1861614951c3d1f71b9cf1e0048b9417662ad5d7776fa601a3f2971d2a6118e1952cbc78a844c0bcbb0a892a0"},
	{"paper", "BF-IBE-H1", "alice@example.com", "02669a5465af86015f66256911caee75269896607c02036e5b726baf7670b6539b1e407581d4bdc0d5e664617fbd7e6ed8180ff6d7f41e7f548bfd692560b5da53"},
	{"paper", "BF-IBE-H1", "the document", "03ab1266c4d6a606d34297f92889ff7cc8556414bb7f37646f6319b5a67d74b9b7350903e246074a23bb35d2515c7e9f6626812154779ac241ec8022b5a80e4f71"},
	{"paper", "BF-IBE-H1", "\x00\x01\x02", "029fb0afb0dca0cae6025909ce15dd667e7938e7ea697b016ea3a5c5e83ff908fe529ba8fdabf5d45ea60c04e6741cba2c16e42a961a18c92c7f52bd5882a2af50"},
	{"paper", "GDH-SIG-H", "", "032e8e58ffad8ab7bbf843f4ec37fb131882771230eacc4ac56edbb13b31e9dd9e9a260bc229a9e350f1ed6104ff55d43ed36b66f85ed40c98565d43462cd98bee"},
	{"paper", "GDH-SIG-H", "alice@example.com", "0301ffdce5fbd287985617950d2ec990a5c92f00cc5d35a473d6e5eb6aa3d11822e73b1522e9a43c66ffe68fe323f0bc1143f3a80618e52ba0d1f9491d70fe2bce"},
	{"paper", "GDH-SIG-H", "the document", "021de4a3035000c38ddaf68c8dc2f0a8adc341656b560e18e55d902a9e63e24f152bdf9c0704aca26b40c3de50fcd63032e64e2cc03499f8c3108652c555bc8582"},
	{"paper", "GDH-SIG-H", "\x00\x01\x02", "021d4b467ef7282aaff35cb684583b67954ece9af75e77693918ee725cec893e11e837c6026c84156470a1b4e5fd2e208c33ddc127eccd2e6f81145a741fbcadd5"},
	{"paper", "", "", "033d4a9678693458cf7066d44ed8051c9b6f41953c9ecfef9de10577390fb7fe4ba6b940c194b227fc01072dd47bc9f561b39e38143641521ee2adf6298d2aeb5b"},
	{"paper", "", "alice@example.com", "024706e80d8c9a70ec67f6ab3226a81a76bc69435bddd61e16b217b891d297ba23fd6112f18f7397eb6f31d888b51e9a0356bdbfa0538fea92aa824ac676148dbe"},
	{"paper", "", "the document", "03064e76da8cef36c6295a74f1bbae5f67797408f8d75153576f7a1f1afdb8be584940ba70cb8a8437df75f0f4b0483008e464a22da992aed83a60a72320ee5006"},
	{"paper", "", "\x00\x01\x02", "030c59b749413c035f0a89505baa4f7e18a89367c9d1674c5f848636db736f1126782ce9d1eb1ff77e7a279eeda9294545c55f6d361dd42c30bbd8b163ad83b7c1"},
}

func TestHashToPointVectors(t *testing.T) {
	curves := testCurves(t)
	for _, v := range hashVectors {
		c := curves[v.curve]
		P, err := c.HashToPoint(v.domain, []byte(v.msg))
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(P.Marshal()); got != v.want {
			t.Errorf("%s HashToPoint(%q, %q) = %s, want %s", v.curve, v.domain, v.msg, got, v.want)
		}
		T, err := c.HashToPointUncleared(v.domain, []byte(v.msg))
		if err != nil {
			t.Fatal(err)
		}
		sameEncoding(t, "uncleared·c", T.ScalarMul(c.Cofactor()), P)
	}
}

// TestBatchToAffine checks the simultaneous-inversion normalization
// against one-at-a-time affine arithmetic, including interleaved points at
// infinity.
func TestBatchToAffine(t *testing.T) {
	c := toyCurve(t)
	F := c.field
	s := newLjScratch(F)
	var pts []limbJac
	var want []*Point
	for i := 0; i < 40; i++ {
		v := newLimbJac(F)
		if i%5 == 3 {
			pts = append(pts, v)
			want = append(want, c.Infinity())
			continue
		}
		P, err := c.RandomPoint(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		// Give the point a non-trivial Z by running it through a doubling
		// and a mixed addition.
		x, y := F.NewElt(), F.NewElt()
		c.loadAffine(P, x, y)
		v.setAffine(F, x, y)
		ljDouble(F, &v, s)
		ljAddMixed(F, &v, x, y, s)
		pts = append(pts, v)
		want = append(want, P.Double().Add(P))
	}
	one := F.NewElt()
	F.SetOne(one)
	prefix := make([][]uint64, len(pts))
	for i := range prefix {
		prefix[i] = F.NewElt()
	}
	if err := ljBatchNormalize(F, pts, prefix, s); err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if want[i].IsInfinity() {
			if !F.IsZero(pts[i].z) {
				t.Fatalf("identity at %d lost its Z = 0", i)
			}
			continue
		}
		if !F.Equal(pts[i].z, one) {
			t.Fatalf("point %d not normalized to Z = 1", i)
		}
		if F.ToBig(pts[i].x).Cmp(want[i].X()) != 0 || F.ToBig(pts[i].y).Cmp(want[i].Y()) != 0 {
			t.Fatalf("batch normalization differs at %d", i)
		}
	}
}

// TestValidateRejectsCofactorPoint feeds Unmarshal a point of cofactor
// order: it decodes (it is on the curve) but Validate must reject it, which
// is the subgroup check the untrusted-input boundaries rely on.
func TestValidateRejectsCofactorPoint(t *testing.T) {
	c := toyCurve(t)
	small := cofactorPoint(t, c)
	if small.InSubgroup() {
		t.Fatal("cofactor-order point claims G1 membership")
	}
	decoded, err := c.Unmarshal(small.Marshal())
	if err != nil {
		t.Fatalf("cofactor point must decode (it is on the curve): %v", err)
	}
	if err := decoded.Validate(); !errors.Is(err, ErrNotInSubgroup) {
		t.Fatalf("Validate = %v, want ErrNotInSubgroup", err)
	}
	if err := c.Infinity().Validate(); !errors.Is(err, ErrNotInSubgroup) {
		t.Fatalf("Validate(O) = %v, want ErrNotInSubgroup", err)
	}
	P, _ := c.RandomG1(rand.Reader)
	if err := P.Validate(); err != nil {
		t.Fatalf("Validate rejected a G1 point: %v", err)
	}
}

// Allocation ceilings at paper parameters (|p| = 512, |q| = 160), set to
// the measured counts. Each kernel takes its limb temporaries from one
// slab; what remains is the scalar recoding (w-NAF digits and words), the
// affine result (two coordinates and the Point), about eighteen per
// variable-time inversion (fp.InvVarTime runs math/big's GCD; ScalarMul
// pays two, ScalarMulCT one for its public table while its final Fermat
// inversion allocates nothing) and, for hash-to-point, the digest and
// big.Int reduction of each try. The fixed message below succeeds on its
// first try.
const (
	maxAllocsScalarMul   = 44
	maxAllocsScalarMulCT = 24
	maxAllocsHashToPoint = 50
)

func TestAllocsPaperKernels(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime changes allocation counts")
	}
	c := paperCurve(t)
	P, err := c.HashToPoint("allocs", []byte("base"))
	if err != nil {
		t.Fatal(err)
	}
	k := new(big.Int).Sub(c.Q(), big.NewInt(12345))
	msg := []byte("the document")
	for _, tc := range []struct {
		name  string
		limit float64
		run   func()
	}{
		{"ScalarMul", maxAllocsScalarMul, func() { P.ScalarMul(k) }},
		{"ScalarMulCT", maxAllocsScalarMulCT, func() { P.ScalarMulCT(k) }},
		{"HashToPoint", maxAllocsHashToPoint, func() {
			if _, err := c.HashToPoint("GDH-SIG-H", msg); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(20, tc.run); got > tc.limit {
			t.Errorf("%s: %.0f allocs/op, ceiling %.0f", tc.name, got, tc.limit)
		}
	}
}

// FuzzScalarMul compares the limb w-NAF ScalarMul and the constant-time
// ladder with the affine ScalarMulBinary oracle on fuzzed scalars (any
// sign and width) and fuzz-selected toy-curve bases, G1 or not.
func FuzzScalarMul(f *testing.F) {
	f.Add([]byte{}, false, int64(1))
	f.Add([]byte{0xfd, 0x51, 0xd4, 0x91}, false, int64(2)) // q
	f.Add([]byte{0xfd, 0x51, 0xd4, 0x92}, true, int64(3))  // −(q+1)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, false, int64(4))
	c := toyCurve(f)
	two, _ := c.NewPoint(big.NewInt(0), big.NewInt(0))
	f.Fuzz(func(t *testing.T, kb []byte, neg bool, seed int64) {
		if len(kb) > 64 {
			kb = kb[:64]
		}
		k := new(big.Int).SetBytes(kb)
		if neg {
			k.Neg(k)
		}
		rng := mrand.New(mrand.NewSource(seed))
		var P *Point
		switch seed & 3 {
		case 0:
			P = two
		case 1:
			P = cofactorPointRand(t, c, rng)
		default:
			var err error
			P, err = c.RandomPoint(rng)
			if err != nil {
				t.Fatal(err)
			}
		}
		sameEncoding(t, "ScalarMul k="+k.String(), P.ScalarMul(k), P.ScalarMulBinary(k))
		if k.Sign() >= 0 && k.BitLen() <= c.Q().BitLen() {
			sameEncoding(t, "ScalarMulCT k="+k.String(), P.ScalarMulCT(k), P.ScalarMulBinary(k))
		}
	})
}

// cofactorPointRand is cofactorPoint drawing from a seeded stream.
func cofactorPointRand(t testing.TB, c *Curve, rng *mrand.Rand) *Point {
	t.Helper()
	for {
		R, err := c.RandomPoint(rng)
		if err != nil {
			t.Fatal(err)
		}
		if small := R.ScalarMul(c.Q()); !small.IsInfinity() {
			return small
		}
	}
}

// BenchmarkScalarMulStrategies compares the multiplication paths at paper
// size: variable-base w-NAF, the constant-time ladder, the fixed-base comb
// and the affine oracle.
func BenchmarkScalarMulStrategies(b *testing.B) {
	c := paperCurve(b)
	P, err := c.HashToPoint("bench", []byte("base"))
	if err != nil {
		b.Fatal(err)
	}
	pc, err := NewPrecomputed(P, c.Q())
	if err != nil {
		b.Fatal(err)
	}
	k, _ := rand.Int(rand.Reader, c.Q())
	b.Run("wnaf", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			P.ScalarMul(k)
		}
	})
	b.Run("ct-fixed-window", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			P.ScalarMulCT(k)
		}
	})
	b.Run("fixed-base", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pc.ScalarMul(k)
		}
	})
	b.Run("binary-ladder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			P.ScalarMulBinary(k)
		}
	})
	b.Run("cofactor-clear", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.clearCofactor(P)
		}
	})
}
