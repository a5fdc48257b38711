package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bf"
	"repro/internal/bls"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/pairing"
)

// Workloads. Each one states which layers it stresses and which it
// bypasses, so a change to one layer has a workload that should move and
// one that should not (see BENCHMARK.json).
var workloads = map[string]spec{
	// mail: Zipf(1.1) recipients over more identities than the SEM pairer
	// LRU (256 per shard) and the sender's GT-table cache (64) hold, so
	// both caches hit and miss; no journal or replication work.
	"mail": {ibeIDs: 1024, warmOps: 256},
	// sign: mediated GDH over 64 signers; scalar multiplication,
	// hash-to-point and MultiPair, no cache and no journal.
	"sign": {signers: 64, warmOps: 16},
	// revoke-churn: an open-loop admin revokes and reinstates 64 of 128
	// identities while one reader decrypts a pre-encrypted inbox; journal
	// group commit, replication and pairer invalidation, no hash-to-point
	// and no scalar multiplication on the measured path.
	"revoke-churn": {ibeIDs: 128, revocable: 64, inbox: 512, warmOps: 128},
}

const (
	// callers is the closed-loop client count (one per core of the 2-core
	// reference box); revoke-churn runs one reader next to its admin.
	callers      = 2
	churnReaders = 1
	// revokeRate is the admin's open-loop schedule.
	revokeRate = 50
	// probeCycles is the size of the revoke probe a traced mail or sign
	// run makes after its window, so the revocation path's layer metrics
	// exist for every workload.
	probeCycles = 32
	// visibleTimeout bounds the wait for a mutation to reach every shard.
	visibleTimeout = 5 * time.Second
)

// runner holds one set-up fleet and the state its windows share.
type runner struct {
	pp      *pairing.Params
	plan    *plan
	fl      *fleet
	pub     *bf.PublicParams // the users' copy (decryption)
	sender  *bf.PublicParams // the senders' copy, with its own recipient cache
	verify  []*bls.PublicKey // an independent verifier's keys
	callers []*caller
	readPos atomic.Int64 // revoke-churn inbox cursor
	revPos  int          // revoke schedule cursor
	idLocks []sync.Mutex // one revoke cycle per identity at a time
	revIDs  []string     // identities the admin revokes
	opIDs   atomic.Uint64
	phases  []string // set-up phase times, for the log
}

// setup builds the plan, starts the fleet, enrolls every SEM half over the
// wire and warms the caches. Everything it does counts as set-up time.
func setup(pp *pairing.Params, name string, seed uint64, dir string, traced bool) (*runner, error) {
	sp, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	t := time.Now()
	p, err := newPlan(pp, sp, seed)
	if err != nil {
		return nil, err
	}
	pub := p.pkg.Public()
	r := &runner{
		pp: pp, plan: p, pub: pub,
		sender: &bf.PublicParams{Pairing: pp, PPub: pub.PPub, MsgLen: pub.MsgLen},
	}
	phase := func(name string) {
		r.phases = append(r.phases, fmt.Sprintf("%s=%.2fs", name, time.Since(t).Seconds()))
		t = time.Now()
	}
	phase("keys")
	for _, k := range p.signers {
		// The verifier shares nothing with the signer but the public point.
		r.verify = append(r.verify, &bls.PublicKey{Pairing: pp, R: k.Public.R})
	}
	for c := 0; c < callers; c++ {
		r.callers = append(r.callers, p.caller(c))
	}
	if sp.revocable > 0 {
		r.revIDs = p.ibeIDs[:sp.revocable]
	} else {
		for i := 0; i < probeCycles; i++ {
			r.revIDs = append(r.revIDs, fmt.Sprintf("probe-%02d@semperf.example", i))
		}
	}
	r.idLocks = make([]sync.Mutex, len(r.revIDs))

	if r.fl, err = startFleet(pp, pub, filepath.Join(dir, fmt.Sprintf("fleet-%s-%d", name, seed)), traced); err != nil {
		return nil, err
	}
	phase("fleet")
	if err := r.enroll(); err != nil {
		r.fl.close()
		return nil, err
	}
	phase("enroll")
	if err := r.warm(); err != nil {
		r.fl.close()
		return nil, err
	}
	phase("warm")
	return r, nil
}

func (r *runner) close() { r.fl.close() }

const enrollBatch = 256

func (r *runner) enroll() error {
	p := r.plan
	for lo := 0; lo < len(p.semHalfs); lo += enrollBatch {
		hi := min(lo+enrollBatch, len(p.semHalfs))
		var ids []string
		var ds []*curve.Point
		for _, h := range p.semHalfs[lo:hi] {
			ids, ds = append(ids, h.ID), append(ds, h.D)
		}
		errs, err := r.fl.sc.RegisterIBEBatch(ids, ds)
		if err = errors.Join(append(errs, err)...); err != nil {
			return fmt.Errorf("enroll ibe: %w", err)
		}
	}
	var ids []string
	var xs []*big.Int
	for _, k := range p.semXs {
		ids, xs = append(ids, k.ID), append(xs, k.X)
	}
	if len(ids) > 0 {
		errs, err := r.fl.sc.RegisterGDHBatch(ids, xs)
		if err = errors.Join(append(errs, err)...); err != nil {
			return fmt.Errorf("enroll gdh: %w", err)
		}
	}
	return nil
}

// warm brings the run to steady state before anything is timed: every
// user half gets its cached Miller program (a user decrypts after the
// first time with it), the SEM and sender caches see a round of real
// traffic from separate warm-up streams, and one revoke/unrevoke cycle
// proves the replication link.
func (r *runner) warm() error {
	p := r.plan
	if len(p.users) > 0 {
		// A decryption attempt builds the user's program before the
		// validity check; with an unrelated ciphertext and a unit token it
		// stops there with ErrTokenMismatch.
		ct, err := r.pub.Encrypt(keyedStream(p.seed, "warm"), "warm@semperf.example", make([]byte, msgLen))
		if err != nil {
			return err
		}
		err = fan(len(p.users), func(i int) error {
			if _, err := core.UserDecrypt(r.pub, p.users[i], ct, r.pp.One()); !errors.Is(err, core.ErrTokenMismatch) {
				return fmt.Errorf("warm-up decrypt of %s: %v", p.users[i].ID, err)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	var failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(cl *caller) {
			defer wg.Done()
			var res result
			for i := 0; i < p.sp.warmOps/callers; i++ {
				r.op(cl, nil, &res)
			}
			failed.Add(int64(res.failed))
		}(p.caller(1000 + c))
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("%d warm-up ops failed", n)
	}
	var res result
	r.cycle(len(r.revIDs)-1, time.Now(), nil, &res, &sync.Mutex{})
	if res.failed > 0 {
		return fmt.Errorf("warm-up revoke cycle failed: %v", res.errs) //cryptolint:public (failure reports name identities and operations, never key material)
	}
	return nil
}

// result is what one measured window observed.
type result struct {
	wall      time.Duration
	start     time.Time
	ops       int         // completed user ops (messages, signatures, granted reads)
	done      []time.Time // when each of them completed
	attempted int
	failed    int
	errs      []string // first few failures

	op             samples // the whole op: message sent and read, signature made and checked, inbox read
	user           samples // the mediated step: DecryptIBE or SignGDH
	peer           samples // the other party's step: encrypt or verify
	ack, visible   samples // revoke ack and every-shard visibility, from the due time
	followerVis    samples // ack → follower registry
	late           samples // generator lateness
	maxLag         uint64
	reads          []read
	windows        []revWindow
	refused, stale int
	spans          []span
}

func (res *result) fail(format string, args ...any) {
	res.failed++
	if len(res.errs) < 5 {
		res.errs = append(res.errs, fmt.Sprintf(format, args...)) //cryptolint:public (failure reports name identities and operations, never key material)
	}
}

// merge folds another goroutine's result into res.
func (res *result) merge(o *result) {
	res.ops += o.ops
	res.done = append(res.done, o.done...)
	res.attempted += o.attempted
	res.failed += o.failed
	for _, e := range o.errs {
		if len(res.errs) < 5 {
			res.errs = append(res.errs, e)
		}
	}
	res.op = append(res.op, o.op...)
	res.user = append(res.user, o.user...)
	res.peer = append(res.peer, o.peer...)
	res.ack = append(res.ack, o.ack...)
	res.visible = append(res.visible, o.visible...)
	res.followerVis = append(res.followerVis, o.followerVis...)
	res.late = append(res.late, o.late...)
	res.maxLag = max(res.maxLag, o.maxLag)
	res.reads = append(res.reads, o.reads...)
	res.windows = append(res.windows, o.windows...)
	off := len(res.spans)
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += off
		}
		res.spans = append(res.spans, s)
	}
}

// window runs the workload for d: the closed-loop callers and, on
// revoke-churn, the open-loop admin. A non-nil base turns tracing on.
func (r *runner) window(d time.Duration, base *time.Time) *result {
	start := time.Now()
	end := start.Add(d)
	n := callers
	if r.plan.sp.revocable > 0 {
		n = churnReaders
	}
	parts := make([]*result, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		parts[c] = &result{}
		wg.Add(1)
		go func(cl *caller, res *result) {
			defer wg.Done()
			var tr *tracer
			if base != nil {
				tr = &tracer{base: *base}
			}
			for time.Now().Before(end) {
				r.op(cl, tr, res)
			}
			if tr != nil {
				res.spans = tr.spans
			}
		}(r.callers[c], parts[c])
	}
	var admin *result
	if r.plan.sp.revocable > 0 {
		admin = r.admin(start, end, base)
	}
	wg.Wait()
	res := &result{start: start, wall: time.Since(start)}
	for _, p := range parts {
		res.merge(p)
	}
	if admin != nil {
		res.merge(admin)
		o := classify(res.reads, res.windows)
		res.failed += o.failed
		if o.failed > 0 && len(res.errs) < 5 {
			res.errs = append(res.errs, fmt.Sprintf("%d reads refused outside any revocation", o.failed))
		}
		res.refused, res.stale = o.refused, o.staleGrants
	}
	return res
}

// op runs one closed-loop operation of the workload.
func (r *runner) op(cl *caller, tr *tracer, res *result) {
	switch {
	case r.plan.sp.inbox > 0:
		r.readOp(cl, tr, res)
	case len(r.plan.signers) > 0:
		r.signOp(cl, tr, res)
	default:
		r.mailOp(cl, tr, res)
	}
}

// mailOp: a sender encrypts a fresh message to a Zipf-drawn recipient, who
// decrypts it through the fleet; the plaintext must match.
func (r *runner) mailOp(cl *caller, tr *tracer, res *result) {
	p := r.plan
	i := cl.recipient(p)
	key, msg := p.users[i], cl.message()
	op := r.opIDs.Add(1)
	res.attempted++
	root := tr.begin(op, "mail", -1)
	t0 := time.Now()
	sp := tr.begin(op, "bf.Encrypt", root)
	ct, err := r.sender.Encrypt(cl.sigma, key.ID, msg)
	tr.end(sp)
	t1 := time.Now()
	if err != nil {
		tr.end(root)
		res.fail("encrypt to %s: %v", key.ID, err)
		return
	}
	var pt []byte
	if tr == nil {
		pt, err = r.fl.sc.DecryptIBE(r.pub, key, ct)
	} else {
		pt, err = r.tracedDecrypt(tr, op, root, key, ct)
	}
	t2 := time.Now()
	tr.end(root)
	if err != nil {
		res.fail("decrypt for %s: %v", key.ID, err)
		return
	}
	if !bytes.Equal(pt, msg) {
		res.fail("decrypt for %s: wrong plaintext", key.ID)
		return
	}
	res.ops++
	res.done = append(res.done, t2)
	res.op.add(t2.Sub(t0))
	res.peer.add(t1.Sub(t0))
	res.user.add(t2.Sub(t1))
}

// tracedDecrypt is ShardedClient.DecryptIBE split into the two calls it
// makes, each under its own span.
func (r *runner) tracedDecrypt(tr *tracer, op uint64, parent int, key *core.UserKeyHalf, ct *bf.Ciphertext) ([]byte, error) {
	sp := tr.begin(op, "sem.IBEToken", parent)
	tok, err := r.fl.sc.IBEToken(key.ID, ct.U)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(op, "core.UserDecrypt", parent)
	pt, err := core.UserDecrypt(r.pub, key, ct, tok)
	tr.end(sp)
	return pt, err
}

// signOp: a signer signs a fresh message through the fleet and an
// independent verifier checks the signature.
func (r *runner) signOp(cl *caller, tr *tracer, res *result) {
	p := r.plan
	i := cl.signer(p)
	key, msg := p.signers[i], cl.message()
	op := r.opIDs.Add(1)
	res.attempted++
	root := tr.begin(op, "sign", -1)
	t0 := time.Now()
	var sig *curve.Point
	var err error
	if tr == nil {
		sig, err = r.fl.sc.SignGDH(key, msg)
	} else {
		sig, err = r.tracedSign(tr, op, root, key, msg)
	}
	t1 := time.Now()
	if err != nil {
		tr.end(root)
		res.fail("sign as %s: %v", key.ID, err)
		return
	}
	sp := tr.begin(op, "bls.Verify", root)
	err = r.verify[i].Verify(msg, sig)
	tr.end(sp)
	t2 := time.Now()
	tr.end(root)
	if err != nil {
		res.fail("verify signature of %s: %v", key.ID, err)
		return
	}
	res.ops++
	res.done = append(res.done, t2)
	res.op.add(t2.Sub(t0))
	res.user.add(t1.Sub(t0))
	res.peer.add(t2.Sub(t1))
}

// tracedSign is ShardedClient.SignGDH split into the three calls it makes.
func (r *runner) tracedSign(tr *tracer, op uint64, parent int, key *core.GDHUserKey, msg []byte) (*curve.Point, error) {
	sp := tr.begin(op, "bls.HashMessage", parent)
	h, err := bls.HashMessage(r.pp, msg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(op, "sem.GDHHalfSign", parent)
	half, err := r.fl.sc.GDHHalfSign(key.ID, h)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(op, "core.UserSign", parent)
	sig, err := core.UserSign(key, msg, half)
	tr.end(sp)
	return sig, err
}

// readOp: the revoke-churn reader decrypts the next inbox letter. A
// refusal is judged after the run against the revocation history.
func (r *runner) readOp(cl *caller, tr *tracer, res *result) {
	p := r.plan
	l := &p.inbox[p.reads[int(r.readPos.Add(1)-1)%len(p.reads)]]
	key := p.users[l.to]
	op := r.opIDs.Add(1)
	res.attempted++
	root := tr.begin(op, "read", -1)
	t0 := time.Now()
	var pt []byte
	var err error
	if tr == nil {
		pt, err = r.fl.sc.DecryptIBE(r.pub, key, l.ct)
	} else {
		pt, err = r.tracedDecrypt(tr, op, root, key, l.ct)
	}
	t1 := time.Now()
	tr.end(root)
	rd := read{id: l.to, start: t0, end: t1}
	switch {
	case err == nil && bytes.Equal(pt, l.msg):
		rd.granted = true
		res.ops++
		res.done = append(res.done, t1)
		res.op.add(t1.Sub(t0))
		res.user.add(t1.Sub(t0))
	case err == nil:
		res.fail("read for %s: wrong plaintext", key.ID)
		return
	case errors.Is(err, core.ErrRevoked):
		rd.refused = true
	default:
		res.fail("read for %s: %v", key.ID, err)
		return
	}
	res.reads = append(res.reads, rd)
}

// admin runs the open-loop revoke schedule from start until end: one cycle
// is due every 1/revokeRate seconds whether or not earlier ones finished.
// Each cycle is timed from its due time, so a stall counts against every
// request scheduled behind it.
func (r *runner) admin(start, end time.Time, base *time.Time) *result {
	res := &result{}
	var (
		mu   sync.Mutex // guards res against the cycles
		wg   sync.WaitGroup
		late samples
	)
	every := time.Second / revokeRate
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * every)
		if !due.Before(end) {
			break
		}
		time.Sleep(time.Until(due))
		late.add(time.Since(due))
		idx := r.revPos % len(r.revIDs)
		if q := r.plan.revokeQ; len(q) > 0 {
			idx = q[r.revPos%len(q)]
		}
		r.revPos++
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tr *tracer
			if base != nil {
				tr = &tracer{base: *base}
			}
			r.cycle(idx, due, tr, res, &mu)
		}()
	}
	wg.Wait()
	res.late = late
	return res
}

// probe runs probeCycles admin cycles on an otherwise idle fleet (mail and
// sign have no revocations of their own).
func (r *runner) probe(base *time.Time) *result {
	start := time.Now()
	return r.admin(start, start.Add(probeCycles*time.Second/revokeRate), base)
}

// cycle revokes identity idx, waits until every shard holds the
// revocation, reinstates it and waits until every shard has dropped it.
// Results go into res under mu.
func (r *runner) cycle(idx int, due time.Time, tr *tracer, res *result, mu *sync.Mutex) {
	r.idLocks[idx].Lock()
	defer r.idLocks[idx].Unlock()
	id := r.revIDs[idx]
	vis := r.fl.visible
	op := r.opIDs.Add(1)
	var o result
	defer func() {
		if tr != nil {
			o.spans = tr.spans
		}
		mu.Lock()
		res.merge(&o)
		mu.Unlock()
	}()
	o.attempted++
	w := revWindow{id: idx}
	defer func() { o.windows = append(o.windows, w) }()

	root := tr.begin(op, "admin.cycle", -1)
	defer tr.end(root)
	armed := vis.expect(id, true)
	w.issue = time.Now()
	sp := tr.begin(op, "sem.Revoke", root)
	err := r.fl.sc.Revoke(id, "semperf churn")
	tr.end(sp)
	w.ack = time.Now()
	if err != nil {
		o.fail("revoke %s: %v", id, err)
		return
	}
	o.maxLag = r.lag()
	sp = tr.begin(op, "wait.revoked", root)
	seen, err := vis.await(id, true, armed, visibleTimeout)
	tr.end(sp)
	if err != nil {
		o.fail("%v", err)
		return
	}
	o.ack.add(w.ack.Sub(due))
	o.visible.add(latest(seen).Sub(due))
	for i, n := range r.fl.nodes {
		if n != r.fl.lead {
			// Negative when the follower applied the record before the
			// client saw the ack.
			o.followerVis.add(seen[i].Sub(w.ack))
		}
	}

	armed = vis.expect(id, false)
	w.unrevokeIssue = time.Now()
	sp = tr.begin(op, "sem.Unrevoke", root)
	err = r.fl.sc.Unrevoke(id)
	tr.end(sp)
	if err != nil {
		o.fail("unrevoke %s: %v", id, err)
		return
	}
	sp = tr.begin(op, "wait.reinstated", root)
	seen, err = vis.await(id, false, armed, visibleTimeout)
	tr.end(sp)
	if err != nil {
		o.fail("%v", err)
		return
	}
	w.cleared = latest(seen)
}

// lag is how many records the slowest follower is behind the leader.
func (r *runner) lag() uint64 {
	last := r.fl.lead.journal.LastSeq()
	var worst uint64
	for _, acked := range r.fl.leader.AckedSeqs() {
		if acked < last {
			worst = max(worst, last-acked)
		}
	}
	return worst
}

func latest(ts []time.Time) time.Time {
	var m time.Time
	for _, t := range ts {
		if t.After(m) {
			m = t
		}
	}
	return m
}
