// Command semperf is the repository's benchmark: it starts a replicated
// two-shard SEM fleet in one process at the paper's parameters
// (|q| = 160, |p| = 512), drives one workload through sem.ShardedClient over
// loopback TCP, checks every output, and prints the result as one JSON line.
//
// Usage (from the repository root; semperf/run.sh builds and runs it):
//
//	semperf --workload mail|sign|revoke-churn --seed N --seconds S --trace 0|1
//
// With --trace 0 it sets the fleet up several times (set-up time is the
// median) and measures the end-to-end metrics of BENCHMARK.json. With
// --trace 1 it sets up once, measures an untraced window and a traced
// window of the same length, replays a sample of the run's inputs through
// the kernels, and reports the per-layer metrics. The exit status is
// non-zero when any output was wrong.
//
//cryptolint:vartime (benchmark harness: it calls the schemes' public API and does no secret arithmetic of its own; its branches and lookups are on identities, addresses, counts and timings)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/pairing"
	"repro/internal/sem"
)

// setups is how many times a --trace 0 run builds the fleet; setup_s is
// the median.
const setups = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer list every metric with its unit, in the order
// BENCHMARK.json declares them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"mediated_p50_ms", "ms"},
	{"heap_live_mb", "MiB"},
}

var perLayer = []struct{ name, unit string }{
	{"sem.rtt_p50_ms", "ms"},
	{"sem.rtt_p99_ms", "ms"},
	{"sem.service_mean_ms", "ms"},
	{"sem.transport_ms", "ms"},
	{"sem.frames_per_op", "count"},
	{"sem.failovers", "count"},
	{"wire.bytes_per_op", "B"},
	{"shard.load_skew", "ratio"},
	{"core.user_p50_ms", "ms"},
	{"core.pairer_hit_ratio", "ratio"},
	{"core.journal_append_mean_ms", "ms"},
	{"core.appends_per_fsync", "count"},
	{"repl.revoke_ack_p50_ms", "ms"},
	{"repl.revoke_ack_p99_ms", "ms"},
	{"repl.revoke_visible_p99_ms", "ms"},
	{"repl.follower_visible_p99_ms", "ms"},
	{"repl.max_lag_seqs", "count"},
	{"repl.stale_grants", "count"},
	{"gen.late_p99_ms", "ms"},
	{"bf.recipient_hit_ratio", "ratio"},
	{"bls.hash_message_ms", "ms"},
	{"curve.hash_to_point_ms", "ms"},
	{"curve.hash_to_point_allocs", "count"},
	{"curve.scalar_mul_ms", "ms"},
	{"curve.scalar_mul_allocs", "count"},
	{"curve.decode_validate_ms", "ms"},
	{"pairing.fixed_pair_ms", "ms"},
	{"pairing.fixed_pair_allocs", "count"},
	{"pairing.new_fixed_pair_ms", "ms"},
	{"pairing.multi_pair2_ms", "ms"},
	{"pairing.generator_mul_ms", "ms"},
	{"pairing.generator_mul_allocs", "count"},
	{"pairing.gt_table_exp_ms", "ms"},
	{"proc.cpu_util", "ratio"},
	{"proc.alloc_bytes_per_op", "B"},
	{"proc.allocs_per_op", "count"},
	{"proc.gc_cpu_fraction", "ratio"},
	{"tracing.overhead", "ratio"},
	{"tracing.unreconciled_ratio", "ratio"},
	{"tracing.p50_gap_ratio", "ratio"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("semperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "mail, sign or revoke-churn")
		seed     = fs.Uint64("seed", 1, "input seed")
		seconds  = fs.Int("seconds", 10, "length of each measured window")
		trace    = fs.Int("trace", 0, "1: traced run with per-layer metrics")
		workdir  = fs.String("workdir", ".bench_build/semperf", "directory for journals and span files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "semperf: need --workload mail|sign|revoke-churn, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	pp, err := pairing.Paper()
	if err != nil {
		fmt.Fprintln(stderr, "semperf:", err)
		return 1
	}
	b := &bench{
		pp: pp, workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second,
		dir: *workdir, out: stdout, log: stderr,
	}
	var rep *report
	if *trace == 1 {
		rep, err = b.traced()
	} else {
		rep, err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(stderr, "semperf:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "semperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

type bench struct {
	pp       *pairing.Params
	workload string
	seed     uint64
	window   time.Duration
	dir      string
	out, log io.Writer
}

func (b *bench) setup(traced bool) (*runner, time.Duration, error) {
	start := time.Now()
	r, err := setup(b.pp, b.workload, b.seed, b.dir, traced)
	return r, time.Since(start), err
}

// endToEnd is the --trace 0 run.
func (b *bench) endToEnd() (*report, error) {
	var r *runner
	var times []float64
	for i := 0; i < setups; i++ {
		if r != nil {
			r.close()
		}
		var d time.Duration
		var err error
		if r, d, err = b.setup(false); err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
		fmt.Fprintf(b.log, "semperf: set-up %d: %.2fs (%s)\n", i+1, d.Seconds(), strings.Join(r.phases, " ")) //cryptolint:public (set-up phase timings)
	}
	defer r.close()
	b.header(r)

	p0, st0 := readProc(), readSteal()
	res := r.window(b.window, nil)
	p1, st1 := readProc(), readSteal()
	live := liveHeapAfterGC()
	fmt.Fprintf(b.log, "semperf: cpu %.3f ms/op, steal %.1f%% of wall\n", //cryptolint:public (CPU and steal-time accounting)
		ratio(p1.minus(p0).cpu.Seconds()*1e3, float64(res.ops)), 100*ratio(st1-st0, res.wall.Seconds()*float64(runtime.NumCPU()))) //cryptolint:public (CPU and steal-time accounting)
	rep := b.check(r, res)

	m := map[string]metric{
		"setup_s":         {median(times), "s"},
		"op_p50_ms":       {pick(res.op.sorted(), 0.5), "ms"},
		"mediated_p50_ms": {pick(res.user.sorted(), 0.5), "ms"},
		"heap_live_mb":    {float64(live) / (1 << 20), "MiB"},
	}
	rep.Metrics = m
	b.named(res, m, times)
	return rep, nil
}

// tail is the p99 of sorted, noting on stderr when too few samples forced
// a lower percentile.
func (b *bench) tail(what string, sorted []float64) float64 {
	v, used, ok := tail(sorted, 0.99)
	if !ok {
		fmt.Fprintf(b.log, "semperf: %s p99 has fewer than %d samples beyond it (n=%d); reporting p%.1f\n", //cryptolint:public (sample counts and percentile ranks)
			what, minBeyond, len(sorted), 100*used)
	}
	return v
}

// check judges a window's correctness: no failed op, and every shard
// agreeing with the leader's revocation set afterwards.
func (b *bench) check(r *runner, res *result) *report {
	rep := &report{Attempted: res.attempted, Failed: res.failed}
	if err := r.fl.converged(5 * time.Second); err != nil {
		rep.Failed++
		rep.Attempted++
		res.errs = append(res.errs, err.Error())
	}
	for _, e := range res.errs {
		fmt.Fprintln(b.log, "semperf: FAILED:", e) //cryptolint:public (failure reports name identities and operations, never key material)
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return rep
}

func (b *bench) header(r *runner) {
	fmt.Fprintf(b.out, "semperf: workload=%s seed=%d params=%s (|q|=%d, |p|=%d) shards=%d replicas=%d pool=%d GOMAXPROCS=%d window=%v\n", //cryptolint:public (run parameters)
		b.workload, b.seed, b.pp.Name(), b.pp.Q().BitLen(), b.pp.P().BitLen(), shards, replicas, poolSize,
		runtime.GOMAXPROCS(0), b.window)
	fmt.Fprintf(b.out, "semperf: inputs sha256=%x\n", inputDigest(r.plan, callers, 16)) //cryptolint:public (a digest of inputs derived from the public seed; the benchmark's keys protect nothing)
}

// named prints the run's numbers under the names of the operations they
// time on this workload, tails included.
func (b *bench) named(res *result, m map[string]metric, setupTimes []float64) {
	line := func(name string, v float64, unit, note string) {
		fmt.Fprintf(b.out, "  %-24s %12.4f %-4s %s\n", name, v, unit, note) //cryptolint:public (benchmark results)
	}
	dist := func(name string, s samples, note string) {
		sorted := s.sorted()
		line(name+"_p50_ms", pick(sorted, 0.5), "ms", fmt.Sprintf("n=%d%s", len(sorted), note))
		line(name+"_p90_ms", pick(sorted, 0.9), "ms", "")
		line(name+"_p99_ms", b.tail(name, sorted), "ms", "")
	}
	line("setup_s", m["setup_s"].Value, "s", fmt.Sprintf("median of %v", setupTimes))
	line("throughput_ops_s", sliceRate(res.start, res.done, throughputSlices), "1/s", fmt.Sprintf("median of %d slices; %d ops in %v", throughputSlices, res.ops, res.wall.Round(time.Millisecond)))
	switch b.workload {
	case "mail":
		dist("encrypt", res.peer, "")
		dist("decrypt", res.user, "")
	case "sign":
		dist("sign", res.user, "")
		dist("verify", res.peer, "")
	case "revoke-churn":
		dist("decrypt", res.user, ", granted reads")
		dist("revoke", res.ack, ", call until ack, from the due time")
		dist("revoke_visible", res.visible, ", until every shard holds it, from the due time")
		line("expected_refusals", float64(res.refused), "", "reads refused while their identity was revoked")
	}
	rate := 0.0
	if res.attempted > 0 {
		rate = float64(res.failed) / float64(res.attempted)
	}
	line("error_rate", rate, "", fmt.Sprintf("%d failed of %d attempted", res.failed, res.attempted))
	line("heap_live_mb", m["heap_live_mb"].Value, "MiB", "live heap after a full GC at the end of the window")
}

// traced is the --trace 1 run.
func (b *bench) traced() (*report, error) {
	r, _, err := b.setup(true)
	if err != nil {
		return nil, err
	}
	defer r.close()
	b.header(r)
	op := sem.OpIBEToken
	rttSpan, userSpan := "sem.IBEToken", "core.UserDecrypt"
	if b.workload == "sign" {
		op, rttSpan, userSpan = sem.OpGDHSign, "sem.GDHHalfSign", "core.UserSign"
	}

	p0 := readProc()
	plain := r.window(b.window, nil)
	p1 := readProc()

	before := r.snap(op)
	base := time.Now()
	tr := r.window(b.window, &base)
	inWindow := r.snap(op)
	// Mail and sign revoke nothing, so their revocation-path numbers come
	// from a probe after the window; its frames stay out of the window's
	// per-op counts.
	revs, afterRevs := tr, inWindow
	all := &result{}
	all.merge(plain)
	all.merge(tr)
	if r.plan.sp.revocable == 0 {
		revs = r.probe(&base)
		afterRevs = r.snap(op)
		all.merge(revs)
	}
	rep := b.check(r, all)

	spans := all.spans // only the traced window and the probe record spans
	selfTimes(spans)
	ops, unrec := reconcile(spans)
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	spanFile := filepath.Join(b.dir, fmt.Sprintf("spans-%s-%d.jsonl", b.workload, b.seed))
	if err := writeSpans(spanFile, spans); err != nil {
		return nil, err
	}

	kern, err := r.replay()
	if err != nil {
		return nil, err
	}

	m := map[string]metric{}
	set := func(name string, v float64) {
		for _, d := range perLayer {
			if d.name == name {
				m[name] = metric{v, d.unit}
				return
			}
		}
		panic("unknown per-layer metric " + name)
	}
	d, j := inWindow.minus(before), afterRevs.minus(before)
	rtt := spanDurations(tr.spans, rttSpan).sorted()
	set("sem.rtt_p50_ms", pick(rtt, 0.5))
	set("sem.rtt_p99_ms", b.tail("sem rtt", rtt))
	svc := ratio(d.svcSum.Seconds()*1e3, float64(d.svcCount))
	set("sem.service_mean_ms", svc)
	set("sem.transport_ms", mean(rtt)-svc)
	set("sem.frames_per_op", ratio(float64(d.frames), float64(tr.ops)))
	set("sem.failovers", float64(d.failovers))
	set("wire.bytes_per_op", ratio(float64(d.wireBytes), float64(tr.ops)))
	set("shard.load_skew", skew(d.reqs))
	set("core.user_p50_ms", pick(spanDurations(tr.spans, userSpan).sorted(), 0.5))
	set("core.pairer_hit_ratio", ratio(float64(d.pairHits), float64(d.pairHits+d.pairMisses)))
	set("core.journal_append_mean_ms", ratio(j.appendSum.Seconds()*1e3, float64(j.appendCount)))
	set("core.appends_per_fsync", ratio(float64(j.appends), float64(j.fsyncs)))
	ack := revs.ack.sorted()
	set("repl.revoke_ack_p50_ms", pick(ack, 0.5))
	set("repl.revoke_ack_p99_ms", b.tail("revoke ack", ack))
	set("repl.revoke_visible_p99_ms", b.tail("revoke visible", revs.visible.sorted()))
	set("repl.follower_visible_p99_ms", b.tail("follower visible", revs.followerVis.sorted()))
	set("repl.max_lag_seqs", float64(revs.maxLag))
	set("repl.stale_grants", float64(tr.stale))
	set("gen.late_p99_ms", b.tail("generator lateness", revs.late.sorted()))
	set("bf.recipient_hit_ratio", ratio(float64(d.recipHits), float64(d.recipHits+d.recipMisses)))
	for name, v := range kern {
		set(name, v)
	}
	pd := p1.minus(p0)
	set("proc.cpu_util", ratio(pd.cpu.Seconds(), plain.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	set("proc.alloc_bytes_per_op", ratio(pd.allocBytes, float64(plain.ops)))
	set("proc.allocs_per_op", ratio(pd.allocObjects, float64(plain.ops)))
	set("proc.gc_cpu_fraction", ratio(pd.gcCPU, pd.busyCPU))
	overhead := ratio(float64(plain.ops)/plain.wall.Seconds(), float64(tr.ops)/tr.wall.Seconds())
	set("tracing.overhead", overhead)
	set("tracing.unreconciled_ratio", ratio(float64(unrec), float64(ops)))
	// The traced user latency, scaled back by the tracing overhead, must
	// sit within the span slack of the untraced one.
	pu, tu := pick(plain.user.sorted(), 0.5), pick(tr.user.sorted(), 0.5)
	gap := math.Abs(ratio(tu, overhead) - pu)
	set("tracing.p50_gap_ratio", ratio(gap, pu))
	if allowed := slack(time.Duration(pu*1e6)).Seconds() * 1e3; gap > allowed {
		fmt.Fprintf(b.log, "semperf: warning: traced mediated p50 %.3f ms / overhead %.3f is %.3f ms from the untraced %.3f ms (slack %.3f ms)\n", //cryptolint:public (latency statistics)
			tu, overhead, gap, pu, allowed) //cryptolint:public (latency statistics)
	}
	// A preempted goroutine can leave one op's gap beyond the slack; more
	// than 1% of ops (and more than one) means the spans miss a layer call.
	if unrec > max(1, ops/100) {
		rep.Correct = false
		fmt.Fprintf(b.log, "semperf: FAILED: %d of %d traced ops do not reconcile with their layer spans\n", unrec, ops) //cryptolint:public (span counts)
	}
	rep.Metrics = m

	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(b.out, "  %-30s %14.4f %s\n", k, m[k].Value, m[k].Unit) //cryptolint:public (benchmark results)
	}
	fmt.Fprintf(b.out, "semperf: %d spans (%d ops) written to %s\n", len(spans), ops, spanFile) //cryptolint:public (span counts and the span file's path)
	return rep, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// skew is the busiest shard's count over the mean count.
func skew(counts []uint64) float64 {
	var sum, most uint64
	for _, c := range counts {
		sum += c
		most = max(most, c)
	}
	return ratio(float64(most), float64(sum)/float64(len(counts)))
}

// layerSnap is a reading of the fleet's public accessors and obs series.
type layerSnap struct {
	svcCount               uint64
	svcSum                 time.Duration
	reqs                   []uint64
	wireBytes              uint64
	pairHits, pairMisses   uint64
	recipHits, recipMisses uint64
	appendCount            uint64
	appendSum              time.Duration
	appends, fsyncs        uint64
	frames, failovers      uint64
}

func (r *runner) snap(op sem.Op) layerSnap {
	var s layerSnap
	l := obs.Label{Key: "op", Value: string(op)}
	for _, n := range r.fl.nodes {
		h := n.metrics.Histogram("sem_service_seconds", "", l).Snapshot()
		s.svcCount += h.Count
		s.svcSum += h.Sum
		s.reqs = append(s.reqs, n.metrics.Counter("sem_requests_total", "", l).Value())
		for _, dir := range []string{"rx", "tx"} {
			s.wireBytes += n.metrics.ValueHistogram("sem_frame_bytes", "", obs.Label{Key: "dir", Value: dir}).Snapshot().Sum
		}
		st := n.ibe.PairerCacheStats()
		s.pairHits += st.Hits
		s.pairMisses += st.Misses
	}
	rs := r.sender.RecipientCacheStats()
	s.recipHits, s.recipMisses = rs.Hits, rs.Misses
	lm := r.fl.lead.metrics
	ah := lm.Histogram("journal_append_seconds", "").Snapshot()
	s.appendCount, s.appendSum = ah.Count, ah.Sum
	s.appends = lm.Counter("journal_appends_total", "").Value()
	s.fsyncs = lm.Counter("journal_fsyncs_total", "").Value()
	s.frames = r.fl.client.Counter("sempool_frames_total", "").Value()
	s.failovers = r.fl.client.Counter("shardclient_failovers_total", "").Value()
	return s
}

func (s layerSnap) minus(o layerSnap) layerSnap {
	d := layerSnap{
		svcCount:    s.svcCount - o.svcCount,
		svcSum:      s.svcSum - o.svcSum,
		wireBytes:   s.wireBytes - o.wireBytes,
		pairHits:    s.pairHits - o.pairHits,
		pairMisses:  s.pairMisses - o.pairMisses,
		recipHits:   s.recipHits - o.recipHits,
		recipMisses: s.recipMisses - o.recipMisses,
		appendCount: s.appendCount - o.appendCount,
		appendSum:   s.appendSum - o.appendSum,
		appends:     s.appends - o.appends,
		fsyncs:      s.fsyncs - o.fsyncs,
		frames:      s.frames - o.frames,
		failovers:   s.failovers - o.failovers,
	}
	for i := range s.reqs {
		d.reqs = append(d.reqs, s.reqs[i]-o.reqs[i])
	}
	return d
}

// procSnap is a reading of process-wide CPU and allocation counters.
type procSnap struct {
	cpu                      time.Duration
	allocBytes, allocObjects float64
	gcCPU, busyCPU           float64
}

var procSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readProc() procSnap {
	ss := make([]metrics.Sample, len(procSamples))
	for i, n := range procSamples {
		ss[i].Name = n
	}
	metrics.Read(ss)
	v := func(i int) float64 {
		switch ss[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(ss[i].Value.Uint64())
		case metrics.KindFloat64:
			return ss[i].Value.Float64()
		}
		return 0
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSnap{cpu: cpu, allocBytes: v(0), allocObjects: v(1), gcCPU: v(2), busyCPU: v(3) - v(4)}
}

func (s procSnap) minus(o procSnap) procSnap {
	return procSnap{
		cpu:          s.cpu - o.cpu,
		allocBytes:   s.allocBytes - o.allocBytes,
		allocObjects: s.allocObjects - o.allocObjects,
		gcCPU:        s.gcCPU - o.gcCPU,
		busyCPU:      s.busyCPU - o.busyCPU,
	}
}

// liveHeapAfterGC runs a full collection and returns the bytes it found
// live: what the fleet and its clients retain (key stores, cached Miller
// programs, GT tables), without the garbage in flight at a random moment.
func liveHeapAfterGC() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// readSteal returns the machine's cumulative steal time in seconds (0 where
// /proc/stat has none).
func readSteal() float64 {
	body, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(body), "\n")
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v / 100
}
