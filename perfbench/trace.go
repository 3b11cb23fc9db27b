package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The span tracer. Every call the benchmark makes into a layer of the
// program is bracketed by a span recorded here, in the benchmark's own
// files; the program itself carries no span code. Spans live on tracks,
// one per benchmark goroutine, and nest strictly within a track, so a
// span's self time is its duration minus its direct children's, and a
// track's unattributed time is its duration minus its root spans'. Self
// times plus unattributed time therefore add up exactly to the summed
// track durations.
//
// Untraced runs pass a nil *track everywhere: begin and end then return
// at once, so the measured code path is the same in both modes.

// maxLoggedSpans bounds the raw span log across all tracks. Accounting
// (self times) is exact regardless; only the written-out log is truncated.
const maxLoggedSpans = 200_000

type spanRec struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent int32  `json:"parent"` // index within the track's spans, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type openSpan struct {
	name  string
	id    uint64
	start int64
	child int64 // summed durations of finished direct children
	idx   int32 // index in spans, -1 if not logged
}

type track struct {
	tr      *tracer
	name    string
	startNs int64
	endNs   int64
	rootNs  int64
	stack   []openSpan
	self    map[string]int64 // layer → self ns
	spans   []spanRec
	dropped int
}

type tracer struct {
	t0     time.Time
	budget atomic.Int64 // spans the log may still take

	mu        sync.Mutex
	tracks    []*track
	self      map[string]int64
	trackNs   int64
	unattribN int64
	nspans    int64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), self: map[string]int64{}}
	t.budget.Store(maxLoggedSpans)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// open starts a track for one goroutine. A nil tracer yields a nil track.
func (t *tracer) open(name string) *track {
	if t == nil {
		return nil
	}
	return &track{tr: t, name: name, startNs: t.now(), self: map[string]int64{}}
}

// begin opens a span named "<layer>.<call>" carrying request id.
func (k *track) begin(name string, id uint64) {
	if k == nil {
		return
	}
	idx := int32(-1)
	if k.tr.budget.Add(-1) >= 0 {
		parent := int32(-1)
		if n := len(k.stack); n > 0 {
			parent = k.stack[n-1].idx
		}
		idx = int32(len(k.spans))
		k.spans = append(k.spans, spanRec{Name: name, ID: id, Parent: parent})
	} else {
		k.dropped++
	}
	k.stack = append(k.stack, openSpan{name: name, id: id, start: k.tr.now(), idx: idx})
}

// end closes the innermost open span.
func (k *track) end() {
	if k == nil {
		return
	}
	now := k.tr.now()
	n := len(k.stack) - 1
	s := k.stack[n]
	k.stack = k.stack[:n]
	d := now - s.start
	k.self[layerOf(s.name)] += d - s.child
	if n > 0 {
		k.stack[n-1].child += d
	} else {
		k.rootNs += d
	}
	if s.idx >= 0 {
		k.spans[s.idx].Start = s.start
		k.spans[s.idx].End = now
	}
}

// close ends the track and folds its accounting into the tracer.
func (k *track) close() {
	if k == nil {
		return
	}
	for len(k.stack) > 0 {
		k.end()
	}
	k.endNs = k.tr.now()
	t := k.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	for l, ns := range k.self {
		t.self[l] += ns
	}
	dur := k.endNs - k.startNs
	t.trackNs += dur
	t.unattribN += dur - k.rootNs
	t.nspans += int64(len(k.spans) + k.dropped)
	t.tracks = append(t.tracks, k)
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layers lists every layer the benchmark attributes time to; each gets a
// self_s.<layer> metric in traced runs, zero where a workload never
// enters it.
var layers = []string{"bench", "idle", "topology", "workload", "netsim", "sim",
	"collective", "core", "steiner", "service", "http", "wire", "check"}

// summary returns per-layer self seconds, the unattributed seconds, the
// summed track seconds, and the span count.
func (t *tracer) summary() (self map[string]float64, unattributed, total float64, spans int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	self = map[string]float64{}
	for l, ns := range t.self {
		self[l] = float64(ns) / 1e9
	}
	return self, float64(t.unattribN) / 1e9, float64(t.trackNs) / 1e9, t.nspans
}

// write dumps every track's spans as JSON to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type trackOut struct {
		Name    string    `json:"name"`
		Start   int64     `json:"start_ns"`
		End     int64     `json:"end_ns"`
		Dropped int       `json:"dropped_spans"`
		Spans   []spanRec `json:"spans"`
	}
	out := make([]trackOut, 0, len(t.tracks))
	for _, k := range t.tracks {
		out = append(out, trackOut{k.name, k.startNs, k.endNs, k.dropped, k.spans})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"tracks": out}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
