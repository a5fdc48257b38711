package core

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/bf"
	"repro/internal/curve"
	"repro/internal/lru"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/pairing"
)

// Mediated Boneh-Franklin IBE (Section 4 of the paper).
//
// The PKG computes the FullIdent key d_ID = s·Q_ID, then splits it
// additively in G1:
//
//	d_ID = d_ID,user + d_ID,sem,   d_ID,user ∈R G1.
//
// Encryption is unchanged FullIdent, so the SEM architecture is transparent
// to senders. To decrypt <U, V, W>, the user asks the SEM for the
// message-specific token g_sem = ê(U, d_ID,sem), computes
// g_user = ê(U, d_ID,user), multiplies g = g_sem·g_user = ê(P_pub, Q_ID)^r
// and finishes FullIdent decryption (including the validity check that makes
// tokens single-use). The SEM refuses tokens for revoked identities —
// instant, fine-grained revocation with no key reissue, unlike the
// validity-period workaround of [4]/[3].

// ErrTokenMismatch is returned when a SEM token does not correspond to the
// ciphertext being decrypted (the FullIdent validity check fails).
var ErrTokenMismatch = errors.New("core: SEM token does not open this ciphertext")

// UserKeyHalf is the user's piece d_ID,user of an identity key.
//
// The half lazily carries the fixed-argument Miller program for
// ê(d_ID,user, ·), so every decryption after the first skips the Miller
// loop's point arithmetic (ê is symmetric). Use halves by pointer once
// decryption has run; the cached program makes values non-copyable.
//
//cryptolint:secret
type UserKeyHalf struct {
	ID string
	D  *curve.Point

	fpOnce sync.Once
	fp     *pairing.FixedPair
}

// pairing returns ê(u, d_ID,user) through the half's cached fixed-argument
// program, falling back to the generic pairing for degenerate halves.
func (k *UserKeyHalf) pairing(pp *pairing.Params, u *curve.Point) (*pairing.GT, error) {
	k.fpOnce.Do(func() {
		fp, err := pp.NewFixedPair(k.D)
		if err == nil {
			k.fp = fp
		}
	})
	if k.fp != nil {
		return k.fp.Pair(u)
	}
	return pp.Pair(u, k.D)
}

// SEMKeyHalf is the mediator's piece d_ID,sem of an identity key.
//
//cryptolint:secret
type SEMKeyHalf struct {
	ID string
	D  *curve.Point
}

// MediatedPKG wraps the Boneh-Franklin PKG with the key-splitting Keygen of
// Section 4. The PKG can go offline once every user's halves are delivered;
// only the SEM stays online.
type MediatedPKG struct {
	pkg *bf.PKG
}

// NewMediatedPKG runs Setup: pairing groups, master key s, P_pub = s·P.
func NewMediatedPKG(rng io.Reader, pp *pairing.Params, msgLen int) (*MediatedPKG, error) {
	pkg, err := bf.Setup(rng, pp, msgLen)
	if err != nil {
		return nil, fmt.Errorf("mediated IBE setup: %w", err)
	}
	return &MediatedPKG{pkg: pkg}, nil
}

// Public returns the system parameters senders use. Encryption is plain
// FullIdent: Public().Encrypt(rng, id, msg).
func (m *MediatedPKG) Public() *bf.PublicParams { return m.pkg.Public() }

// SplitExtract derives d_ID = s·H1(ID), draws d_ID,user uniformly from G1
// and returns the two halves. The PKG retains nothing.
func (m *MediatedPKG) SplitExtract(rng io.Reader, id string) (*UserKeyHalf, *SEMKeyHalf, error) {
	full, err := m.pkg.Extract(id)
	if err != nil {
		return nil, nil, err
	}
	pp := m.pkg.Public().Pairing
	r, err := mathx.RandomFieldElement(orRand(rng), pp.Q())
	if err != nil {
		return nil, nil, fmt.Errorf("sample user half: %w", err)
	}
	dUser := pp.GeneratorMul(r)
	dSem := full.D.Add(dUser.Neg())
	return &UserKeyHalf{ID: id, D: dUser}, &SEMKeyHalf{ID: id, D: dSem}, nil
}

// IBESEM is the mediator's half of the mediated IBE: it stores the SEM key
// halves, enforces revocation and issues decryption tokens. Safe for
// concurrent use.
//
// Token issuance is the SEM's entire hot path — every decryption by every
// user lands here — so the SEM keeps an LRU of fixed-argument Miller
// programs (one per recently served identity): after the first token for an
// identity, ê(U, d_ID,sem) costs a line-program replay instead of a full
// Miller loop. Revoking or re-registering an identity drops its program.
type IBESEM struct {
	pub     *bf.PublicParams
	reg     *Registry
	keys    *keyStore[*SEMKeyHalf]
	pairers *lru.Cache[string, *semPairer]

	// building holds one channel per identity whose program is being built,
	// closed when the build lands in pairers: concurrent first requests for
	// an identity wait for one build instead of each running their own.
	buildMu  sync.Mutex
	building map[string]chan struct{}
}

// semPairer binds a precomputed pairing program to the exact key half it
// was derived from, so a cached program can never serve a re-registered
// identity's stale key.
type semPairer struct {
	d  *curve.Point
	fp *pairing.FixedPair
}

// semPairerCapacity bounds the SEM's per-identity precomputation cache; the
// working set of actively decrypting identities stays warm while idle ones
// age out. Tunable per deployment with SetPairerCacheCapacity.
const semPairerCapacity = 256

// NewIBESEM constructs a SEM bound to the system parameters and a (possibly
// shared) revocation registry. The SEM subscribes to the registry: revoking
// an identity synchronously drops its precomputed pairing program, and so
// does reinstating one — a replication snapshot can flip an identity
// through revoke/unrevoke without the SEM seeing the individual mutations,
// so both transitions must invalidate derived state.
func NewIBESEM(pub *bf.PublicParams, reg *Registry) *IBESEM {
	s := &IBESEM{
		pub:      pub,
		reg:      reg,
		keys:     newKeyStore[*SEMKeyHalf](),
		pairers:  lru.New[string, *semPairer](semPairerCapacity),
		building: make(map[string]chan struct{}),
	}
	reg.OnRevoke(func(id string) { s.pairers.Remove(id) })
	reg.OnUnrevoke(func(id string) { s.pairers.Remove(id) })
	return s
}

// Register installs an identity's SEM key half, invalidating any pairing
// program precomputed for a previously registered half.
func (s *IBESEM) Register(half *SEMKeyHalf) {
	s.keys.put(half.ID, half)
	s.pairers.Remove(half.ID)
}

// InstrumentPairerCache exports the precomputation cache's hit/miss/
// eviction counters and size through reg as the cache="sem_pairers"
// series of the shared lru_* families.
func (s *IBESEM) InstrumentPairerCache(reg *obs.Registry) {
	s.pairers.Instrument(reg, "sem_pairers")
}

// PairerCacheStats reports the hit/miss/eviction counters of the SEM's
// precomputed-pairing cache.
func (s *IBESEM) PairerCacheStats() lru.Stats { return s.pairers.Stats() }

// PairerCacheLen returns the number of identities with a live precomputed
// pairing program.
func (s *IBESEM) PairerCacheLen() int { return s.pairers.Len() }

// SetPairerCacheCapacity resizes the precomputation cache (values below 1
// are clamped to 1).
func (s *IBESEM) SetPairerCacheCapacity(n int) { s.pairers.Resize(n) }

// Registry exposes the revocation registry (admin interface).
func (s *IBESEM) Registry() *Registry { return s.reg }

// Token implements the SEM side of the decryption protocol: check
// revocation, then return g_sem = ê(U, d_ID,sem).
//
// The token is bound to U = H3(σ, M)·P, so it opens exactly one ciphertext;
// it reveals nothing about d_ID,sem (it is a random-looking GT element) and
// is useless to anyone but the key-half holder.
func (s *IBESEM) Token(id string, u *curve.Point) (*pairing.GT, error) {
	if err := s.reg.Check(id); err != nil {
		return nil, err
	}
	half, ok := s.keys.get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownIdentity, id)
	}
	if u == nil || u.IsInfinity() || !u.InSubgroup() {
		return nil, fmt.Errorf("core: ciphertext point U is not a valid G1 element")
	}
	// Serve from the per-identity precomputed Miller program when it matches
	// the registered half; (re)build it otherwise. A concurrent revoke can
	// race the Add and leave a cached program behind, but it can never be
	// *served* for a revoked identity — the Check above runs on every call —
	// and the entry is keyed to this exact half, so it is correct again if
	// the identity is unrevoked.
	fp, err := s.pairer(id, half)
	if err != nil {
		// Degenerate registered half; fall back to the generic pairing.
		return s.pub.Pairing.Pair(u, half.D)
	}
	return fp.Pair(u)
}

// pairer returns the cached Miller program for the registered half,
// building it on a miss. Concurrent misses on one identity share a single
// build: later callers wait for it and then read the cache.
func (s *IBESEM) pairer(id string, half *SEMKeyHalf) (*pairing.FixedPair, error) {
	for {
		if cached, ok := s.pairers.Get(id); ok && cached.d.Equal(half.D) {
			return cached.fp, nil
		}
		s.buildMu.Lock()
		if wait, ok := s.building[id]; ok {
			s.buildMu.Unlock()
			<-wait
			continue
		}
		// A build may have landed between the miss above and the lock.
		if cached, ok := s.pairers.Get(id); ok && cached.d.Equal(half.D) {
			s.buildMu.Unlock()
			return cached.fp, nil
		}
		done := make(chan struct{})
		s.building[id] = done
		s.buildMu.Unlock()

		fp, err := s.pub.Pairing.NewFixedPair(half.D)
		if err == nil {
			s.pairers.Add(id, &semPairer{d: half.D, fp: fp})
		}
		s.buildMu.Lock()
		delete(s.building, id)
		s.buildMu.Unlock()
		close(done)
		return fp, err
	}
}

// UserDecrypt completes decryption on the user side given the SEM token:
// g = g_sem · ê(U, d_ID,user), then the FullIdent opening with its validity
// check.
func UserDecrypt(pub *bf.PublicParams, key *UserKeyHalf, c *bf.Ciphertext, token *pairing.GT) ([]byte, error) {
	gUser, err := key.pairing(pub.Pairing, c.U)
	if err != nil {
		return nil, err
	}
	g := token.Mul(gUser)
	msg, err := pub.OpenWithPairingValue(g, c)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTokenMismatch, err)
	}
	return msg, nil
}

// Decrypt runs the full two-party protocol in-process (user and SEM in the
// same address space) — the reference flow and benchmark body. The
// networked flow lives in internal/sem.
func Decrypt(sem *IBESEM, key *UserKeyHalf, c *bf.Ciphertext) ([]byte, error) {
	token, err := sem.Token(key.ID, c.U)
	if err != nil {
		return nil, err
	}
	return UserDecrypt(sem.pub, key, c, token)
}

// RecombineKey reassembles the full FullIdent key from both halves. Only
// the collusion experiments use it: it is exactly what a user who corrupts
// the SEM can do — and the point of Theorem 4.1 is that this yields *one*
// identity's key, never other users' plaintext.
func RecombineKey(user *UserKeyHalf, sem *SEMKeyHalf) (*bf.PrivateKey, error) {
	if user.ID != sem.ID {
		return nil, fmt.Errorf("core: halves belong to different identities (%q, %q)", user.ID, sem.ID)
	}
	return &bf.PrivateKey{ID: user.ID, D: user.D.Add(sem.D)}, nil
}

func orRand(rng io.Reader) io.Reader {
	if rng == nil {
		return rand.Reader
	}
	return rng
}
