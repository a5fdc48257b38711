package main

import (
	"fmt"
	"math/big"
	"runtime"
	"time"

	"repro/internal/bls"
	"repro/internal/curve"
	"repro/internal/mathx"
	"repro/internal/pairing"
)

// replayN is how many inputs each kernel replays.
const replayN = 16

// replayDomain separates the replay's hash-to-point calls from the schemes'.
const replayDomain = "semperf-replay"

// replay runs a sample of this run's own inputs (its identities and the
// messages its callers send) through each kernel's public functions on the
// idle fleet, and returns time per call in ms and, where named, allocations
// per call.
func (r *runner) replay() (map[string]float64, error) {
	p, pp := r.plan, r.pp
	c := pp.Curve()
	out := map[string]float64{}
	var ids [][]byte
	for _, id := range p.ibeIDs {
		ids = append(ids, []byte(id))
	}
	for _, k := range p.signers {
		ids = append(ids, []byte(k.ID))
	}
	ids = ids[:min(replayN, len(ids))]
	cl := p.caller(2000)
	msgs := make([][]byte, replayN)
	for i := range msgs {
		msgs[i] = cl.message()
	}
	scalars := make([]*big.Int, replayN)
	rng := keyedStream(p.seed, "replay-scalars")
	for i := range scalars {
		k, err := mathx.RandomFieldElement(rng, pp.Q())
		if err != nil {
			return nil, err
		}
		scalars[i] = k
	}

	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	pts := make([]*curve.Point, len(ids))
	measure(out, "curve.hash_to_point", true, len(ids), func(i int) {
		var err error
		pts[i], err = c.HashToPoint(replayDomain, ids[i])
		keep(err)
	})
	if firstErr != nil {
		return nil, firstErr
	}
	at := func(i int) *curve.Point { return pts[i%len(pts)] }
	measure(out, "curve.scalar_mul", true, replayN, func(i int) { at(i).ScalarMul(scalars[i]) })
	enc := make([][]byte, replayN)
	for i := range enc {
		enc[i] = at(i).Marshal()
	}
	measure(out, "curve.decode_validate", false, replayN, func(i int) {
		pt, err := c.Unmarshal(enc[i])
		if err == nil {
			err = pt.Validate()
		}
		keep(err)
	})
	measure(out, "bls.hash_message", false, replayN, func(i int) {
		_, err := bls.HashMessage(pp, msgs[i])
		keep(err)
	})

	fixed := make([]*pairing.FixedPair, replayN/2)
	measure(out, "pairing.new_fixed_pair", false, len(fixed), func(i int) {
		var err error
		fixed[i], err = pp.NewFixedPair(at(i))
		keep(err)
	})
	if firstErr != nil {
		return nil, firstErr
	}
	measure(out, "pairing.fixed_pair", true, replayN, func(i int) {
		_, err := fixed[i%len(fixed)].Pair(at(i + 1))
		keep(err)
	})
	// A GDH tuple check ê(P, x·h)·ê(−x·P, h) = 1, as Verify evaluates it.
	xs := make([]*curve.Point, replayN)
	rs := make([]*curve.Point, replayN)
	for i := range xs {
		xs[i] = at(i).ScalarMul(scalars[i])
		rs[i] = pp.GeneratorMul(scalars[i]).Neg()
	}
	measure(out, "pairing.multi_pair2", false, replayN, func(i int) {
		g, err := pp.MultiPair([]*curve.Point{pp.Generator(), rs[i]}, []*curve.Point{xs[i], at(i)})
		if err == nil && !g.IsOne() {
			err = fmt.Errorf("replayed GDH tuple %d does not pair to one", i)
		}
		keep(err)
	})
	measure(out, "pairing.generator_mul", true, replayN, func(i int) { pp.GeneratorMul(scalars[i]) })
	g, err := pp.Pair(at(0), at(1))
	if err != nil {
		return nil, err
	}
	tab, err := pairing.NewGTTable(g)
	if err != nil {
		return nil, err
	}
	measure(out, "pairing.gt_table_exp", false, replayN, func(i int) { tab.Exp(scalars[i]) })
	return out, firstErr
}

// measure times n calls of f after one untimed call, recording ms per
// call under name+"_ms" and, with allocs set, allocations per call under
// name+"_allocs".
func measure(out map[string]float64, name string, allocs bool, n int, f func(i int)) {
	f(0)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	out[name+"_ms"] = d.Seconds() * 1e3 / float64(n)
	if allocs {
		out[name+"_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(n)
	}
}
