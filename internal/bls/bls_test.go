package bls

import (
	"crypto/rand"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/pairing"
	"repro/internal/shamir"
)

func toyParams(t *testing.T) *pairing.Params {
	t.Helper()
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

func TestSignVerify(t *testing.T) {
	pp := toyParams(t)
	key, err := GenerateKey(rand.Reader, pp)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("the quick brown fox")
	sig, err := key.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := key.Public.Verify(msg, sig); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
}

// TestVerifyHashMatchesVerify checks that verifying against a caller-held
// hash agrees with Verify, which hashes the message itself.
func TestVerifyHashMatchesVerify(t *testing.T) {
	pp := toyParams(t)
	key, _ := GenerateKey(rand.Reader, pp)
	msg := []byte("hashed once")
	sig, _ := key.Sign(msg)
	h, err := HashMessage(pp, msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := key.Public.VerifyHash(h, sig); err != nil {
		t.Fatalf("VerifyHash rejected a valid signature: %v", err)
	}
	other, _ := HashMessage(pp, []byte("another message"))
	if err := key.Public.VerifyHash(other, sig); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("VerifyHash accepted the wrong hash: %v", err)
	}
	if err := key.Public.VerifyHash(h, pp.Curve().Infinity()); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("VerifyHash accepted the identity: %v", err)
	}
}

func TestVerifyRejectsWrongMessage(t *testing.T) {
	pp := toyParams(t)
	key, _ := GenerateKey(rand.Reader, pp)
	sig, _ := key.Sign([]byte("msg-a"))
	if err := key.Public.Verify([]byte("msg-b"), sig); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("forged message accepted: %v", err)
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	pp := toyParams(t)
	k1, _ := GenerateKey(rand.Reader, pp)
	k2, _ := GenerateKey(rand.Reader, pp)
	msg := []byte("msg")
	sig, _ := k1.Sign(msg)
	if err := k2.Public.Verify(msg, sig); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("cross-key signature accepted: %v", err)
	}
}

func TestVerifyRejectsDegenerate(t *testing.T) {
	pp := toyParams(t)
	key, _ := GenerateKey(rand.Reader, pp)
	if err := key.Public.Verify([]byte("m"), pp.Curve().Infinity()); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("infinity signature accepted: %v", err)
	}
	if err := key.Public.Verify([]byte("m"), nil); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("nil signature accepted: %v", err)
	}
	// A full-group point outside G1 must be rejected before pairing.
	outside, err := pp.Curve().RandomPoint(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for outside.InSubgroup() {
		outside, _ = pp.Curve().RandomPoint(rand.Reader)
	}
	if err := key.Public.Verify([]byte("m"), outside); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("out-of-subgroup signature accepted: %v", err)
	}
}

func TestSignatureDeterministic(t *testing.T) {
	pp := toyParams(t)
	key, _ := GenerateKey(rand.Reader, pp)
	s1, _ := key.Sign([]byte("m"))
	s2, _ := key.Sign([]byte("m"))
	if !s1.Equal(s2) {
		t.Fatal("GDH signatures must be deterministic")
	}
}

func TestSignatureIsCompact(t *testing.T) {
	// The compressed signature is |p|/8 + 1 bytes; at paper parameters that
	// is 65 B and the subgroup position is |q| = 160 bits of entropy — the
	// "short signature" property.
	pp := toyParams(t)
	key, _ := GenerateKey(rand.Reader, pp)
	sig, _ := key.Sign([]byte("m"))
	if got := len(sig.Marshal()); got != 1+pp.Curve().CoordinateSize() {
		t.Fatalf("compressed signature is %d bytes", got)
	}
}

func TestThresholdSigning(t *testing.T) {
	pp := toyParams(t)
	dealer, err := NewThresholdDealer(rand.Reader, pp, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("threshold me")
	partials := make([]shamir.PointShare, 0, 3)
	for i := 2; i <= 4; i++ { // arbitrary t-subset {2,3,4}
		share, err := dealer.PlayerShare(i)
		if err != nil {
			t.Fatal(err)
		}
		partial, err := SignShare(pp, share, msg)
		if err != nil {
			t.Fatal(err)
		}
		vk, err := dealer.VerificationKey(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyShare(pp, vk, msg, partial); err != nil {
			t.Fatalf("honest share rejected: %v", err)
		}
		partials = append(partials, partial)
	}
	sig, err := Combine(pp, partials, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := dealer.GroupKey().Verify(msg, sig); err != nil {
		t.Fatalf("combined threshold signature invalid: %v", err)
	}
}

func TestThresholdMatchesDirectSignature(t *testing.T) {
	// Determinism means the combined signature must equal the signature the
	// whole key would have produced.
	pp := toyParams(t)
	dealer, _ := NewThresholdDealer(rand.Reader, pp, 2, 3)
	msg := []byte("determinism check")

	var partials []shamir.PointShare
	for i := 1; i <= 2; i++ {
		share, _ := dealer.PlayerShare(i)
		partial, _ := SignShare(pp, share, msg)
		partials = append(partials, partial)
	}
	combined, _ := Combine(pp, partials, 2)

	// Reconstruct x directly and sign.
	s1, _ := dealer.PlayerShare(1)
	s2, _ := dealer.PlayerShare(2)
	x, err := shamir.Reconstruct([]shamir.Share{s1, s2}, 2, pp.Q())
	if err != nil {
		t.Fatal(err)
	}
	whole, err := KeyFromScalar(pp, x)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := whole.Sign(msg)
	if !combined.Equal(direct) {
		t.Fatal("threshold combination differs from direct signature")
	}
}

func TestCorruptedShareDetected(t *testing.T) {
	pp := toyParams(t)
	dealer, _ := NewThresholdDealer(rand.Reader, pp, 2, 3)
	msg := []byte("byzantine")
	share, _ := dealer.PlayerShare(1)
	partial, _ := SignShare(pp, share, msg)
	// Corrupt the partial signature.
	partial.Value = partial.Value.Double()
	vk, _ := dealer.VerificationKey(1)
	if err := VerifyShare(pp, vk, msg, partial); !errors.Is(err, ErrInvalidShare) {
		t.Fatalf("corrupted share passed verification: %v", err)
	}
}

func TestCorruptedShareBreaksCombination(t *testing.T) {
	pp := toyParams(t)
	dealer, _ := NewThresholdDealer(rand.Reader, pp, 2, 3)
	msg := []byte("bad combine")
	s1, _ := dealer.PlayerShare(1)
	s2, _ := dealer.PlayerShare(2)
	p1, _ := SignShare(pp, s1, msg)
	p2, _ := SignShare(pp, s2, msg)
	p2.Value = p2.Value.Double() // corrupt silently
	sig, err := Combine(pp, []shamir.PointShare{p1, p2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := dealer.GroupKey().Verify(msg, sig); err == nil {
		t.Fatal("signature combined from a corrupted share verified")
	}
}

func TestDealerValidation(t *testing.T) {
	pp := toyParams(t)
	if _, err := NewThresholdDealer(rand.Reader, pp, 0, 3); err == nil {
		t.Error("t=0 accepted")
	}
	if _, err := NewThresholdDealer(rand.Reader, pp, 4, 3); err == nil {
		t.Error("t>n accepted")
	}
	dealer, _ := NewThresholdDealer(rand.Reader, pp, 2, 3)
	if _, err := dealer.PlayerShare(0); err == nil {
		t.Error("player index 0 accepted")
	}
	if _, err := dealer.PlayerShare(4); err == nil {
		t.Error("player index n+1 accepted")
	}
	if _, err := dealer.VerificationKey(9); err == nil {
		t.Error("verification key index out of range accepted")
	}
}

func TestQuickAnyTSubsetCombines(t *testing.T) {
	pp := toyParams(t)
	dealer, _ := NewThresholdDealer(rand.Reader, pp, 3, 6)
	msg := []byte("subsets")
	cfg := &quick.Config{MaxCount: 8}
	property := func(a, b, c uint8) bool {
		// Map to three distinct indices in 1..6.
		idx := map[int]bool{}
		for _, v := range []uint8{a, b, c} {
			idx[1+int(v)%6] = true
		}
		for cand := 1; len(idx) < 3; cand++ {
			idx[cand] = true
		}
		var partials []shamir.PointShare
		for i := range idx {
			share, err := dealer.PlayerShare(i)
			if err != nil {
				return false
			}
			partial, err := SignShare(pp, share, msg)
			if err != nil {
				return false
			}
			partials = append(partials, partial)
		}
		sig, err := Combine(pp, partials, 3)
		if err != nil {
			return false
		}
		return dealer.GroupKey().Verify(msg, sig) == nil
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}
