package main

import (
	"path"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/vfs"
)

// Stable-store call classes the probe tells apart by file name.
const (
	classJournal = iota // drain_journal.json and its temporaries
	classLedger         // the HNP ledger, ledger.jsonl
	classData           // per-rank images inside opal_snapshot_N.ckpt
	classMeta           // metadata, markers, renames, listings, stats
	numClasses
)

var classNames = [numClasses]string{"journal", "ledger", "data", "meta"}

// storeCount is the work of one class of stable-store calls.
type storeCount struct {
	ops, bytes int64
	dur        time.Duration
}

func (c *storeCount) add(o storeCount) {
	c.ops += o.ops
	c.bytes += o.bytes
	c.dur += o.dur
}

func (c storeCount) minus(o storeCount) storeCount {
	return storeCount{c.ops - o.ops, c.bytes - o.bytes, c.dur - o.dur}
}

// storeTotals is one snapshot of the probe's counters.
type storeTotals struct {
	all   [numClasses]storeCount // every call
	reads storeCount             // ReadFile calls of any class
	// dataWrites maps interval → bytes of per-rank image writes.
	dataWrites map[int]int64
}

// storeStats accumulates probe counts across the stores of a run (the
// failover workload gives every cycle a fresh store).
type storeStats struct {
	mu  sync.Mutex
	cur storeTotals
}

func newStoreStats() *storeStats {
	return &storeStats{cur: storeTotals{dataWrites: make(map[int]int64)}}
}

func (s *storeStats) record(class int, read bool, iv int, n int64, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := storeCount{ops: 1, bytes: n, dur: d}
	s.cur.all[class].add(c)
	if read {
		s.cur.reads.add(c)
	}
	if class == classData && !read && iv >= 0 {
		s.cur.dataWrites[iv] += n
	}
}

func (s *storeStats) snapshot() storeTotals {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.cur
	t.dataWrites = make(map[int]int64, len(s.cur.dataWrites))
	for k, v := range s.cur.dataWrites {
		t.dataWrites[k] = v
	}
	return t
}

// sub returns the work done between an earlier snapshot and this one.
func (t storeTotals) sub(o storeTotals) storeTotals {
	out := storeTotals{dataWrites: make(map[int]int64)}
	for i := range t.all {
		out.all[i] = t.all[i].minus(o.all[i])
	}
	out.reads = t.reads.minus(o.reads)
	for k, v := range t.dataWrites {
		if d := v - o.dataWrites[k]; d != 0 {
			out.dataWrites[k] = d
		}
	}
	return out
}

// storeProbe wraps the stable store of a traced run: it classifies each
// call by file name and records its count, bytes and time, plus one
// span per call. Only the traced run installs it.
type storeProbe struct {
	fs    vfs.FS
	stats *storeStats
	tr    *tracer
	// parentOf maps an interval to the span its store calls belong to
	// (the interval's drain window); may be nil.
	parentOf func(iv int) int64
}

// classify names the class of a stable-store path.
func classify(name string) int {
	base := path.Base(name)
	switch {
	case strings.Contains(base, "drain_journal"):
		return classJournal
	case strings.Contains(base, "ledger"):
		return classLedger
	case strings.Contains(name, "opal_snapshot_") && !strings.HasSuffix(base, ".json"):
		return classData
	}
	return classMeta
}

// intervalOf extracts the interval number from a lineage path such as
// ompi_global_snapshot_1.ckpt/7/opal_snapshot_0.ckpt/image, or -1.
func intervalOf(name string) int {
	parts := strings.Split(strings.TrimLeft(name, "/"), "/")
	for i, p := range parts {
		if strings.HasPrefix(p, "ompi_global_snapshot_") && i+1 < len(parts) {
			if n, err := strconv.Atoi(strings.TrimPrefix(parts[i+1], ".stage_")); err == nil {
				return n
			}
			return -1
		}
	}
	return -1
}

// done records one call. Calls are classed by the name they touch,
// except that only reads and writes of images count as data: renames,
// removals and listings of image paths are metadata work.
func (p *storeProbe) done(op, name string, read bool, n int64, start time.Time) {
	end := time.Now()
	class := classify(name)
	if class == classData && op != "read" && op != "write" {
		class = classMeta
	}
	iv := intervalOf(name)
	p.stats.record(class, read, iv, n, end.Sub(start))
	var parent int64
	if p.parentOf != nil && iv >= 0 {
		parent = p.parentOf(iv)
	}
	p.tr.add(span{parent: parent, name: "store." + classNames[class] + "." + op,
		start: start, end: end, interval: iv, rank: -1})
}

func (p *storeProbe) WriteFile(name string, data []byte) error {
	start := time.Now()
	err := p.fs.WriteFile(name, data)
	p.done("write", name, false, int64(len(data)), start)
	return err
}

func (p *storeProbe) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	data, err := p.fs.ReadFile(name)
	p.done("read", name, true, int64(len(data)), start)
	return data, err
}

func (p *storeProbe) Remove(name string) error {
	start := time.Now()
	err := p.fs.Remove(name)
	p.done("remove", name, false, 0, start)
	return err
}

func (p *storeProbe) Rename(oldName, newName string) error {
	start := time.Now()
	err := p.fs.Rename(oldName, newName)
	p.done("rename", newName, false, 0, start)
	return err
}

func (p *storeProbe) MkdirAll(name string) error {
	start := time.Now()
	err := p.fs.MkdirAll(name)
	p.done("mkdir", name, false, 0, start)
	return err
}

func (p *storeProbe) ReadDir(name string) ([]vfs.FileInfo, error) {
	start := time.Now()
	out, err := p.fs.ReadDir(name)
	p.done("readdir", name, false, 0, start)
	return out, err
}

func (p *storeProbe) Stat(name string) (vfs.FileInfo, error) {
	start := time.Now()
	fi, err := p.fs.Stat(name)
	p.done("stat", name, false, 0, start)
	return fi, err
}

var _ vfs.FS = (*storeProbe)(nil)
