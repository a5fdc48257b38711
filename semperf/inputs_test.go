package main

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/pairing"
)

// small exercises every input stream: IBE and GDH keys, the inbox and the
// revoke schedule.
var small = spec{ibeIDs: 6, revocable: 3, signers: 4, inbox: 5}

func digestFor(t *testing.T, pp *pairing.Params, seed uint64) []byte {
	t.Helper()
	p, err := newPlan(pp, small, seed)
	if err != nil {
		t.Fatal(err)
	}
	return inputDigest(p, callers, 8)
}

func TestInputsAreSeeded(t *testing.T) {
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	a, b := digestFor(t, pp, 7), digestFor(t, pp, 7)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed, different inputs: %x vs %x", a, b)
	}
	if c := digestFor(t, pp, 8); bytes.Equal(a, c) {
		t.Fatalf("seeds 7 and 8 gave the same input digest %x", a)
	}
}

// Splitting keys on one goroutine or several must give the same halves.
func TestKeySplitIndependentOfWorkers(t *testing.T) {
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one, err := newPlan(pp, small, 3)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	four, err := newPlan(pp, small, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Digest(), four.Digest()) {
		t.Fatal("key split depends on the number of workers")
	}
}

func TestMailRecipientsFollowPopularity(t *testing.T) {
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPlan(pp, spec{ibeIDs: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := p.caller(0)
	hits := map[int]int{}
	for i := 0; i < 4000; i++ {
		hits[cl.recipient(p)]++
	}
	top, tail := hits[p.popular[0]], hits[p.popular[63]]
	if top < 10*tail {
		t.Fatalf("most popular identity drawn %d times, least popular %d: not Zipf-shaped", top, tail)
	}
}
