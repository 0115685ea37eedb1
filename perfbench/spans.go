package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the spans a traced run keeps for the span file; the
// per-layer statistics never depend on it. Later spans are counted as
// dropped.
const maxSpans = 200000

// span is one benchmark-side interval: a call into the program, or a
// window the benchmark observes from outside (due → commit, kill →
// every rank stepping).
type span struct {
	id, parent int64
	name       string
	start, end time.Time
	interval   int // checkpoint interval, -1 when none
	rank       int // MPI rank, -1 for the harness
}

// tracer records spans in memory and writes them as Chrome trace-event
// JSON at exit. A nil *tracer records nothing: the untraced run passes
// nil everywhere.
type tracer struct {
	workload string
	epoch    time.Time
	next     atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// id reserves a span id, so children can name a parent that is recorded
// only when it ends.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// add records a finished span. id 0 allocates a fresh one.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.id == 0 {
		s.id = t.id()
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		covered := coveredWithin(s.start, s.end, children[s.id])
		out[s.name] += ms(s.end.Sub(s.start) - covered)
	}
	return out
}

// coveredWithin is the length of the union of the children's intervals
// clipped to [start, end].
func coveredWithin(start, end time.Time, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start.Before(kids[j].start) })
	var total time.Duration
	var curS, curE time.Time
	open := false
	for _, k := range kids {
		s, e := k.start, k.end
		if s.Before(start) {
			s = start
		}
		if e.After(end) {
			e = end
		}
		if !e.After(s) {
			continue
		}
		if open && !s.After(curE) {
			if e.After(curE) {
				curE = e
			}
			continue
		}
		if open {
			total += curE.Sub(curS)
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE.Sub(curS)
	}
	return total
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as a Chrome trace-event file (one process per
// workload, one thread per rank, thread 0 for the harness) with the
// per-name self times under otherData.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"workload": t.workload, "id": s.id}
		if s.parent != 0 {
			args["parent"] = s.parent
		}
		if s.interval >= 0 {
			args["interval"] = s.interval
		}
		if s.rank >= 0 {
			args["rank"] = s.rank
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: t.workload, Ph: "X",
			Ts:  float64(s.start.Sub(t.epoch)) / 1e3,
			Dur: float64(s.end.Sub(s.start)) / 1e3,
			Pid: 1, Tid: s.rank + 1, Args: args,
		})
	}
	dropped := t.dropped
	t.mu.Unlock()
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData": map[string]any{
			"workload":      t.workload,
			"dropped_spans": dropped,
			"self_ms":       self,
		},
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
