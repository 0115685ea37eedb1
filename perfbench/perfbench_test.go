package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// tinyConfig shrinks every workload so the self-test runs in seconds.
// Six ranks on three nodes keep a node loss (two ranks) within the
// in-job recovery quorum.
func tinyConfig() config {
	var c config
	c.NP, c.Nodes, c.MinJobs, c.Builds = 6, 3, 1, 1
	c.Steady.Cells, c.Steady.Steps = 32, 60
	c.Periodic.Cells, c.Periodic.Steps = 64, 300
	c.Periodic.Delay, c.Periodic.Every, c.Periodic.StopMargin = 200*time.Microsecond, 10*time.Millisecond, 30
	f := &c.Failover
	f.Cells, f.Delay = 64, 200*time.Microsecond
	f.Lineage, f.Every, f.Tail = 4, 4, 8
	f.CycleSteps, f.CkptStep, f.KillMin, f.KillMax = 30, 6, 2, 6
	return c
}

// runTiny runs one workload at tiny size for its minimum job count.
func runTiny(t *testing.T, cfg config, workload string, seed int64, traced bool) report {
	t.Helper()
	rep, err := run(cfg, workload, seed, 0, traced, t.TempDir())
	if err != nil {
		t.Fatalf("%s (traced=%v): %v", workload, traced, err)
	}
	return rep
}

func TestEveryMetricEmittedWithUnit(t *testing.T) {
	for _, wl := range []string{"steady", "periodic", "failover"} {
		for _, traced := range []bool{false, true} {
			rep := runTiny(t, tinyConfig(), wl, 1, traced)
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl, traced, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.name]
				if !ok || m.Unit != d.unit || m.Unit == "" {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", wl, traced, d.name, m, d.unit)
				}
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			if !traced {
				for _, n := range []string{"setup_s", "solve_s", "stall_ms.p50", "done_ms.p50"} {
					if rep.Metrics[n].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", wl, n, rep.Metrics[n].Value)
					}
				}
			}
		}
	}
}

func TestTracedRunWritesSpanFile(t *testing.T) {
	dir := t.TempDir()
	if _, err := run(tinyConfig(), "periodic", 3, 0, true, dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "periodic-seed3.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"ckpt.interval"`, `"ckpt.capture"`, `"ckpt.drain"`, `"ompi.step"`, `"store.data.write"`, `"self_ms"`} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("span file lacks %s", want)
		}
	}
}

func TestOracleMatchesSerialJacobi(t *testing.T) {
	// The oracle itself: a 2-rank ring of 3 cells, one step by hand.
	got := jacobi(2, 3, 1)
	in := []float64{0, 1, 2, 3, 4, 5}
	for i := range in {
		l, r := in[(i+5)%6], in[(i+1)%6]
		if want := (l + in[i] + r) / 3; got[i] != want {
			t.Fatalf("cell %d: %v, want %v", i, got[i], want)
		}
	}
}

func TestCorruptedFinalStateFails(t *testing.T) {
	cfg := tinyConfig()
	cfg.corrupt = true
	rep, err := run(cfg, "steady", 1, 0, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 {
		t.Fatalf("corrupted state reported correct=%v failed=%d", rep.Correct, rep.Failed)
	}
}

func TestDeterministicCountsRepeat(t *testing.T) {
	a := runTiny(t, tinyConfig(), "failover", 11, true)
	b := runTiny(t, tinyConfig(), "failover", 11, true)
	// Image bytes at pinned steps repeat exactly for a seed.
	for _, n := range []string{"crs.image_bytes.p50", "crs.image_bytes_per_step"} {
		va, vb := a.Metrics[n].Value, b.Metrics[n].Value
		if va <= 0 || va != vb {
			t.Errorf("%s: %v then %v, want equal and positive", n, va, vb)
		}
	}
	// Counts that include snapshot metadata repeat up to its wall-clock
	// timestamps, whose RFC 3339 encoding drops trailing zeros: a few
	// bytes per metadata file.
	for _, n := range []string{"filem.bytes_moved_per_ckpt", "runtime.restored_bytes_per_restart", "recovery.restored_bytes"} {
		va, vb := a.Metrics[n].Value, b.Metrics[n].Value
		if va <= 0 || math.Abs(va-vb) > 64 {
			t.Errorf("%s: %v then %v, want positive and equal up to timestamp widths", n, va, vb)
		}
	}
}

func TestProbeClassifiesStoreCalls(t *testing.T) {
	cases := map[string]int{
		"ompi_global_snapshot_1.ckpt/drain_journal.json": classJournal,
		"ompi_global_snapshot_1.ckpt/.drain_journal.tmp": classJournal,
		"ledger.jsonl": classLedger,
		"ompi_global_snapshot_1.ckpt/3/opal_snapshot_2.ckpt/image":              classData,
		"ompi_global_snapshot_1.ckpt/3/opal_snapshot_2.ckpt/snapshot_meta.json": classMeta,
		"ompi_global_snapshot_1.ckpt/3/COMMITTED":                               classMeta,
	}
	for name, want := range cases {
		if got := classify(name); got != want {
			t.Errorf("classify(%q) = %s, want %s", name, classNames[got], classNames[want])
		}
	}
	if iv := intervalOf("ompi_global_snapshot_1.ckpt/3/opal_snapshot_2.ckpt/image"); iv != 3 {
		t.Errorf("intervalOf = %d, want 3", iv)
	}
	if iv := intervalOf("ledger.jsonl"); iv != -1 {
		t.Errorf("intervalOf(ledger) = %d, want -1", iv)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	tr := newTracer("x")
	t0 := tr.epoch
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.id()
	tr.add(span{id: root, name: "root", start: at(0), end: at(10), interval: -1, rank: -1})
	tr.add(span{parent: root, name: "kid", start: at(2), end: at(5), interval: -1, rank: -1})
	tr.add(span{parent: root, name: "kid", start: at(4), end: at(7), interval: -1, rank: -1})
	tr.add(span{parent: root, name: "kid", start: at(9), end: at(12), interval: -1, rank: -1})
	self := tr.selfTimes()
	if got := self["root"]; got != 10-5-1 {
		t.Errorf("root self time %v ms, want 4", got)
	}
}

func TestBenchmarkJSONListsTheEmittedMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark emits %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
