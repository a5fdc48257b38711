package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPick(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := pick(xs, c.q); got != c.want {
			t.Errorf("pick(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := pick(nil, 0.5); got != 0 {
		t.Errorf("pick(empty) = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The tail percentile needs minBeyond samples above its rank; with fewer
// it falls back to the highest percentile that has them.
func TestTailNeedsTenBeyond(t *testing.T) {
	v, used, ok := tail(seq(1000), 0.99)
	if !ok || v != 990 || used != 0.99 {
		t.Fatalf("tail(1..1000) = %v, %v, %v; want 990 at p99", v, used, ok)
	}
	v, used, ok = tail(seq(999), 0.99)
	if ok || v != 989 || used != 989.0/999 {
		t.Fatalf("tail(1..999) = %v, %v, %v; want fallback to rank 989", v, used, ok)
	}
	v, used, ok = tail(seq(500), 0.99)
	if ok || v != 490 {
		t.Fatalf("tail(1..500) = %v, %v, %v; want fallback to rank 490", v, used, ok)
	}
	v, _, ok = tail(seq(10), 0.99)
	if ok || v != 10 {
		t.Fatalf("tail(1..10) = %v, %v; want the maximum, not ok", v, ok)
	}
	if _, _, ok = tail(nil, 0.99); ok {
		t.Fatal("tail of no samples reported ok")
	}
}

func TestSliceRate(t *testing.T) {
	t0 := time.Unix(0, 0)
	var done []time.Time
	// 100 ops, one every 10 ms, then a 500 ms stall before the last 10.
	for i := 1; i <= 90; i++ {
		done = append(done, t0.Add(time.Duration(i)*10*time.Millisecond))
	}
	for i := 1; i <= 10; i++ {
		done = append(done, t0.Add(900*time.Millisecond+500*time.Millisecond+time.Duration(i)*10*time.Millisecond))
	}
	// Nine slices run at 100 ops/s, the stalled one at 10/0.6 s.
	if got := sliceRate(t0, done, 10); got != 100 {
		t.Fatalf("sliceRate = %v, want 100", got)
	}
	if got := sliceRate(t0, nil, 10); got != 0 {
		t.Fatalf("sliceRate of nothing = %v, want 0", got)
	}
}

func TestClassifyReads(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	windows := []revWindow{
		{id: 1, issue: at(10), ack: at(12), unrevokeIssue: at(20), cleared: at(22)},
		{id: 2, issue: at(50)}, // revoke failed or still open: open-ended
	}
	reads := []read{
		{id: 1, start: at(11), end: at(13), refused: true},  // overlaps the revocation: expected
		{id: 1, start: at(21), end: at(21), refused: true},  // unrevoke not yet visible everywhere: expected
		{id: 1, start: at(23), end: at(24), refused: true},  // after it cleared: failure
		{id: 1, start: at(5), end: at(9), refused: true},    // before it was issued: failure
		{id: 3, start: at(11), end: at(13), refused: true},  // never revoked: failure
		{id: 2, start: at(60), end: at(61), refused: true},  // open window: expected
		{id: 1, start: at(13), end: at(15), granted: true},  // granted after the ack: stale
		{id: 1, start: at(11), end: at(15), granted: true},  // started before the ack: not stale
		{id: 1, start: at(19), end: at(21), granted: true},  // ended after the unrevoke was sent: not stale
		{id: 2, start: at(40), end: at(45), granted: true},  // before the revoke: fine
		{id: 2, start: at(70), end: at(71), granted: false}, // neither granted nor refused: failure
	}
	got := classify(reads, windows)
	want := readOutcome{failed: 4, refused: 3, staleGrants: 1}
	if got != want {
		t.Fatalf("classify = %+v, want %+v", got, want)
	}
}

func TestResultFailureCounting(t *testing.T) {
	var a, b result
	a.attempted, b.attempted = 3, 4
	for i := 0; i < 7; i++ {
		b.fail("op %d", i)
	}
	a.merge(&b)
	if a.attempted != 7 || a.failed != 7 || len(a.errs) != 5 {
		t.Fatalf("merged attempted=%d failed=%d errs=%d; want 7, 7, 5 kept messages", a.attempted, a.failed, len(a.errs))
	}
}

func TestSelfTimesAndReconcile(t *testing.T) {
	spans := []span{
		{Op: 1, Name: "op", Parent: -1, Start: 0, End: 100},
		{Op: 1, Name: "a", Parent: 0, Start: 0, End: 40},
		{Op: 1, Name: "b", Parent: 0, Start: 30, End: 90}, // overlaps a by 10
		{Op: 1, Name: "b.1", Parent: 2, Start: 50, End: 60},
		{Op: 2, Name: "op", Parent: -1, Start: 200, End: 1_200_000},
		{Op: 2, Name: "a", Parent: 4, Start: 200, End: 600_000}, // half the op unattributed
	}
	selfTimes(spans)
	wantSelf := []int64{10, 40, 50, 10, 600_000, 599_800}
	for i, w := range wantSelf {
		if spans[i].Self != w {
			t.Errorf("span %d (%s) self = %d, want %d", i, spans[i].Name, spans[i].Self, w)
		}
	}
	// Op 1: its self times sum to 110 ≠ 100 because a and b overlap; op 2's
	// root leaves 0.6 ms unattributed, beyond the 0.25 ms + 5% slack.
	ops, unrec := reconcile(spans)
	if ops != 2 || unrec != 2 {
		t.Fatalf("reconcile = %d ops, %d unreconciled; want 2, 2", ops, unrec)
	}
	spans[2].Start = 40 // siblings no longer overlap
	spans[5].End = 1_150_000
	selfTimes(spans)
	if ops, unrec = reconcile(spans); unrec != 0 {
		t.Fatalf("after fixing the overlap and the gap: %d of %d unreconciled", unrec, ops)
	}
}

func TestCovered(t *testing.T) {
	if got := covered(0, 100, [][2]int64{{-10, 20}, {10, 30}, {50, 60}, {90, 200}}); got != 30+10+10 {
		t.Fatalf("covered = %d, want 50", got)
	}
}

// BENCHMARK.json and the metric tables the program prints from must agree.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(cfg.Workloads), len(workloads))
	}
	for _, w := range cfg.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEnd)
	check("per_layer", cfg.PerLayer, perLayer)
}
