package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Spans are recorded by the benchmark around each public call it makes into
// a layer. Each goroutine appends to its own tracer; spans of one op share
// the op's ID and point at their parent by index within that tracer.
type span struct {
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index in the same tracer, -1 for the op's root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

type tracer struct {
	base  time.Time
	spans []span
}

// begin opens a span and returns its index (nil tracers record nothing).
func (t *tracer) begin(op uint64, name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent, Start: int64(time.Since(t.base))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.base))
}

// selfTimes sets each span's self time: its duration minus the part of its
// interval covered by its children (overlapping children count once).
func selfTimes(spans []span) {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		spans[i].Self = spans[i].dur() - covered(spans[i].Start, spans[i].End, kids[i])
	}
}

// covered is the length of [lo, hi) covered by the union of the intervals.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// Reconciliation: the self times of an op's spans must add up to the op's
// own span, and the root's self time — time inside the op that no layer
// call accounts for — must stay within slack.
const (
	slackFixed = 250 * time.Microsecond
	slackShare = 0.05
)

func slack(d time.Duration) time.Duration {
	return slackFixed + time.Duration(slackShare*float64(d))
}

// reconcile checks every op root in spans (self times already computed):
// Σ self over the op's spans must equal the root's duration, and the
// root's unattributed self time must be within slack. It returns the
// number of roots and how many failed either check.
func reconcile(spans []span) (ops, unreconciled int) {
	sum := map[uint64]int64{}
	for _, s := range spans {
		sum[s.Op] += s.Self
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			continue
		}
		ops++
		if sum[s.Op] != s.dur() || time.Duration(s.Self) > slack(time.Duration(s.dur())) {
			unreconciled++
		}
	}
	return ops, unreconciled
}

// spanDurations returns the durations, in ms, of the spans with this name.
func spanDurations(spans []span, name string) samples {
	var out samples
	for _, s := range spans {
		if s.Name == name {
			out.add(time.Duration(s.dur()))
		}
	}
	return out
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
