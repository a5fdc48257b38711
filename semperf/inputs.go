package main

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/rand/v2"

	"repro/internal/bf"
	"repro/internal/core"
	"repro/internal/pairing"
	"repro/internal/parallel"
)

// Every input of a run is derived from the seed through a named stream, so
// the same seed reproduces identities, key halves, messages, recipient
// draws and the revoke schedule exactly, whatever the timing of the run.

// keyedStream returns a deterministic byte stream (AES-256-CTR under a key
// derived from the seed and the stream's name). It feeds the rng parameters
// of SplitExtract, Keygen and Encrypt, and message generation.
func keyedStream(seed uint64, name string) io.Reader {
	h := sha256.New()
	fmt.Fprintf(h, "semperf/%d/%s", seed, name)
	key := h.Sum(nil)
	block, err := aes.NewCipher(key)
	if err != nil {
		panic(err) // a 32-byte key is always valid
	}
	iv := make([]byte, aes.BlockSize)
	return cipher.StreamReader{S: cipher.NewCTR(block, iv), R: zeroReader{}}
}

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// drawSource returns a deterministic non-cryptographic generator for
// index draws (Zipf ranks, shuffles).
func drawSource(seed uint64, name string) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("semperf-draw/%d/%s", seed, name)))
	return rand.New(rand.NewPCG(binary.LittleEndian.Uint64(h[:8]), binary.LittleEndian.Uint64(h[8:16])))
}

// spec sizes one workload's population.
type spec struct {
	ibeIDs    int // enrolled IBE identities (mail recipients; revoke-churn stable+revocable)
	revocable int // of those, how many the admin revokes (revoke-churn)
	signers   int // enrolled GDH signers (sign)
	inbox     int // letters encrypted during setup (revoke-churn)
	warmOps   int // real ops run at the end of setup to bring the caches to steady state
}

// msgLen is the plaintext length of every letter and signed message.
const msgLen = 32

// plan is the seeded, timing-independent input of one run.
type plan struct {
	seed uint64
	sp   spec
	pkg  *core.MediatedPKG

	ibeIDs   []string
	users    []*core.UserKeyHalf
	semHalfs []*core.SEMKeyHalf
	signers  []*core.GDHUserKey
	semXs    []*core.GDHSEMKey
	popular  []int     // Zipf rank → identity index
	inbox    []letter  // revoke-churn reader inbox
	reads    []int     // inbox read order
	revokeQ  []int     // admin schedule: identity index of the k-th revoke
	digest   hash.Hash // running digest of every generated input
}

// letter is one inbox entry and the plaintext it must decrypt to.
type letter struct {
	to  int
	msg []byte
	ct  *bf.Ciphertext
}

// newPlan derives the population: identities, key halves (split in
// parallel; each identity has its own stream, so the result does not depend
// on scheduling), the recipient popularity order, the inbox and the revoke
// schedule.
func newPlan(pp *pairing.Params, sp spec, seed uint64) (*plan, error) {
	pkg, err := core.NewMediatedPKG(keyedStream(seed, "pkg"), pp, msgLen)
	if err != nil {
		return nil, err
	}
	p := &plan{seed: seed, sp: sp, pkg: pkg, digest: sha256.New()}
	ta := core.NewGDHAuthority(pp)
	p.note("pkg", pkg.Public().PPub.Marshal())

	names := keyedStream(seed, "identities")
	name := func(prefix string) string {
		var b [6]byte
		if _, err := io.ReadFull(names, b[:]); err != nil {
			panic(err)
		}
		return fmt.Sprintf("%s-%x@semperf.example", prefix, b)
	}
	// Identities stay in locals here: p holds key material, and cryptolint's
	// taint analysis treats whatever is read back out of p as secret-derived
	// (it would then flag the identity in bf's error messages).
	ids := make([]string, sp.ibeIDs)
	for i := range ids {
		ids[i] = name("u")
	}
	p.ibeIDs = ids
	signerIDs := make([]string, sp.signers)
	for i := range signerIDs {
		signerIDs[i] = name("s")
	}

	p.users = make([]*core.UserKeyHalf, sp.ibeIDs)
	p.semHalfs = make([]*core.SEMKeyHalf, sp.ibeIDs)
	p.signers = make([]*core.GDHUserKey, sp.signers)
	p.semXs = make([]*core.GDHSEMKey, sp.signers)
	err = fan(sp.ibeIDs+sp.signers, func(i int) (err error) {
		if i < sp.ibeIDs {
			id := ids[i]
			p.users[i], p.semHalfs[i], err = pkg.SplitExtract(keyedStream(seed, "ibe-key/"+id), id)
			return err
		}
		j := i - sp.ibeIDs
		id := signerIDs[j]
		p.signers[j], p.semXs[j], err = ta.Keygen(keyedStream(seed, "gdh-key/"+id), id)
		return err
	})
	if err != nil {
		return nil, err
	}
	for i := range p.users {
		p.note("ibe", []byte(ids[i]), p.users[i].D.Marshal(), p.semHalfs[i].D.Marshal())
	}
	for i := range p.signers {
		p.note("gdh", []byte(p.signers[i].ID), p.signers[i].X.Bytes(), p.semXs[i].X.Bytes())
	}

	p.popular = drawSource(seed, "popularity").Perm(sp.ibeIDs)
	for _, v := range p.popular {
		p.noteInt("rank", v)
	}

	if sp.inbox > 0 {
		// Letters go round-robin to every identity, revocable ones included.
		p.inbox = make([]letter, sp.inbox)
		msgs := keyedStream(seed, "inbox")
		for i := range p.inbox {
			p.inbox[i] = letter{to: i % sp.ibeIDs, msg: make([]byte, msgLen)}
			if _, err := io.ReadFull(msgs, p.inbox[i].msg); err != nil {
				return nil, err
			}
		}
		pub := p.pkg.Public()
		err = fan(sp.inbox, func(i int) (err error) {
			l := &p.inbox[i]
			l.ct, err = pub.Encrypt(keyedStream(seed, fmt.Sprintf("inbox-sigma/%d", i)), ids[l.to], l.msg)
			return err
		})
		if err != nil {
			return nil, err
		}
		for _, l := range p.inbox {
			p.note("letter", l.msg, l.ct.Marshal())
		}
		p.reads = drawSource(seed, "reads").Perm(sp.inbox)
		for _, v := range p.reads {
			p.noteInt("read", v)
		}
	}

	if sp.revocable > 0 {
		// Revocable identities are the first sp.revocable; the schedule
		// walks seeded permutations of them, so an identity comes back only
		// after every other revocable identity has had its turn.
		order := drawSource(seed, "revokes")
		for len(p.revokeQ) < 4096 {
			p.revokeQ = append(p.revokeQ, order.Perm(sp.revocable)...)
		}
		for _, v := range p.revokeQ {
			p.noteInt("revoke", v)
		}
	}
	return p, nil
}

// note folds labelled input bytes into the plan's digest.
func (p *plan) note(label string, parts ...[]byte) {
	p.digest.Write([]byte(label))
	for _, b := range parts {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(b)))
		p.digest.Write(n[:])
		p.digest.Write(b)
	}
}

func (p *plan) noteInt(label string, v int) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	p.note(label, b[:])
}

// Digest returns the digest of every input generated so far.
func (p *plan) Digest() []byte {
	return p.digest.Sum(nil)
}

// caller is one closed-loop client's private input streams.
type caller struct {
	zipf  *rand.Zipf
	pick  *rand.Rand
	msgs  io.Reader
	sigma io.Reader
}

// zipfS is the recipient-popularity exponent of the mail workload.
const zipfS = 1.1

func (p *plan) caller(c int) *caller {
	pick := drawSource(p.seed, fmt.Sprintf("caller/%d", c))
	cl := &caller{
		pick:  pick,
		msgs:  keyedStream(p.seed, fmt.Sprintf("messages/%d", c)),
		sigma: keyedStream(p.seed, fmt.Sprintf("sigma/%d", c)),
	}
	if p.sp.ibeIDs > 1 {
		cl.zipf = rand.NewZipf(pick, zipfS, 1, uint64(p.sp.ibeIDs-1))
	}
	return cl
}

// recipient draws the next mail recipient (Zipf over the popularity order).
func (c *caller) recipient(p *plan) int {
	return p.popular[c.zipf.Uint64()]
}

// signer draws the next signer uniformly.
func (c *caller) signer(p *plan) int {
	return c.pick.IntN(len(p.signers))
}

// message returns the next fresh message of this caller.
func (c *caller) message() []byte {
	m := make([]byte, msgLen)
	if _, err := io.ReadFull(c.msgs, m); err != nil {
		panic(err) // keyed streams never fail
	}
	return m
}

// fan runs f(0..n-1) on the repository's worker fan and joins the errors.
func fan(n int, f func(i int) error) error {
	errs := make([]error, n)
	parallel.Fan(n, func(i int) { errs[i] = f(i) })
	return errors.Join(errs...)
}

// inputDigest digests the plan and the first n draws and messages of each
// caller's streams: two runs with equal digests were fed the same inputs.
func inputDigest(p *plan, callers, n int) []byte {
	h := sha256.New()
	h.Write(p.Digest())
	for c := 0; c < callers; c++ {
		cl := p.caller(c)
		for i := 0; i < n; i++ {
			var b [8]byte
			switch {
			case cl.zipf != nil:
				binary.BigEndian.PutUint64(b[:], uint64(cl.recipient(p)))
			case len(p.signers) > 0:
				binary.BigEndian.PutUint64(b[:], uint64(cl.signer(p)))
			}
			h.Write(b[:])
			h.Write(cl.message())
		}
	}
	return h.Sum(nil)
}
