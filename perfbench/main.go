// Command perfbench is the repository's benchmark: it runs one workload
// of the C/R stack end to end on the default MCA stack, checks every
// result against a serial reference, and prints the metrics named in
// BENCHMARK.json. See NOTES.md for the workloads and the metric map.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload steady|periodic|failover --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced for a quarter of the time, traced for half and untraced again
// for the last quarter, prints the per-layer metrics, and writes the
// traced half's spans as Chrome trace-event JSON under -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"
)

// config sizes the workloads. The self-test shrinks it.
type config struct {
	NP      int // ranks per job
	Nodes   int // job nodes (failover adds one spare)
	MinJobs int // jobs (or failover cycles per kind) run even past the deadline
	Builds  int // failover lineage builds per run: the set-up samples

	Steady struct {
		Cells, Steps int
	}
	Periodic struct {
		Cells, Steps int
		Delay        time.Duration // sleep-modeled compute per step
		Every        time.Duration // open-loop request period
		StopMargin   int           // no request this close to the last step
	}
	Failover struct {
		Cells   int
		Delay   time.Duration
		Lineage int // committed intervals in the prebuilt lineage
		Every   int // steps between lineage checkpoints
		Tail    int // steps after the last lineage checkpoint
		// A failure cycle's job checkpoints at CkptStep, is hit at a
		// seeded step in CkptStep+[KillMin, KillMax], and ends at
		// CycleSteps.
		CycleSteps, CkptStep, KillMin, KillMax int
	}

	corrupt bool // flip a bit of every final state (self-test only)
}

func defaultConfig() config {
	var c config
	c.NP, c.Nodes, c.MinJobs, c.Builds = 8, 4, 2, 3
	c.Steady.Cells, c.Steady.Steps = 1024, 10000
	c.Periodic.Cells, c.Periodic.Steps = 16384, 2500
	c.Periodic.Delay, c.Periodic.Every, c.Periodic.StopMargin = 0, 50*time.Millisecond, 100
	f := &c.Failover
	f.Cells, f.Delay = 16384, 500*time.Microsecond
	f.Lineage, f.Every, f.Tail = 32, 4, 32
	f.CycleSteps, f.CkptStep, f.KillMin, f.KillMax = 40, 8, 3, 12
	return c
}

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user sees, reported by every workload; see
// NOTES.md for what stall and done time on each workload. Their p90s are
// reported by the traced run: host CPU steal moves them too far between
// runs to gate on.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"stall_ms.p50", "ms"},
	{"done_ms.p50", "ms"},
}

// perLayer are the traced run's metrics, by module. A layer that does no
// work on a workload reports 0.
var perLayer = []metricDef{
	{"stall_ms.p90", "ms"}, {"done_ms.p90", "ms"},
	{"ckpt_blocked_ms.p50", "ms"}, {"ckpt_blocked_ms.p90", "ms"},
	{"commit_ms.p50", "ms"}, {"commit_ms.p90", "ms"},
	{"recover_ms.p50", "ms"}, {"recover_ms.p90", "ms"},
	{"hold_restart_ms.p50", "ms"}, {"hold_restart_ms.p90", "ms"},
	{"restart_ms.p50", "ms"}, {"restart_ms.p90", "ms"},
	{"failed_ratio", "ratio"},
	{"ompi.step_us.p50", "us"}, {"ompi.boundary_us.p50", "us"}, {"ompi.boundary_us.p90", "us"},
	{"ompi.body_us.p50", "us"}, {"ompi.boundary_share", "ratio"}, {"go.alloc_bytes_per_step", "B"},
	{"crcp.quiesce_ms.p50", "ms"}, {"crcp.quiesce_failed", "count"},
	{"crs.capture_ms.p50", "ms"}, {"crs.image_bytes.p50", "B"}, {"crs.image_overhead", "ratio"},
	{"crs.image_bytes_per_step", "B/step"},
	{"snapc.coord_ms.p50", "ms"}, {"snapc.drain_wait_ms.p50", "ms"}, {"snapc.drain_ms.p50", "ms"},
	{"snapc.backpressure_per_ckpt", "count"}, {"snapc.aborted", "count"},
	{"levels.seal_ms.p50", "ms"}, {"levels.promote_ms.p50", "ms"},
	{"filem.gather_ms.p50", "ms"}, {"filem.bytes_moved_per_ckpt", "B"}, {"filem.dedup_ratio", "ratio"},
	{"filem.sim_ms_per_ckpt", "ms"}, {"filem.retries", "count"},
	{"snapshot.commit_ms.p50", "ms"}, {"snapshot.resolve_ms.p50", "ms"},
	{"store.journal.bytes_per_ckpt", "B"}, {"store.journal.ops_per_ckpt", "count"}, {"store.journal.ms_per_ckpt", "ms"},
	{"store.ledger.bytes_per_ckpt", "B"}, {"store.ledger.ops_per_ckpt", "count"}, {"store.ledger.ms_per_ckpt", "ms"},
	{"store.data.bytes_per_ckpt", "B"}, {"store.data.ms_per_ckpt", "ms"}, {"store.meta.ops_per_ckpt", "count"},
	{"store.read.bytes_per_restart", "B"}, {"store.read.ops_per_restart", "count"}, {"store.read.ms_per_restart", "ms"},
	{"runtime.relaunch_ms.p50", "ms"}, {"runtime.resume_ms.p50", "ms"}, {"runtime.hold_relaunch_ms.p50", "ms"},
	{"runtime.restored_bytes_per_restart", "B"},
	{"recovery.detect_ms", "ms"}, {"recovery.resolve_ms", "ms"}, {"recovery.respawn_ms", "ms"},
	{"recovery.reknit_ms", "ms"}, {"recovery.restored_bytes", "B"}, {"recovery.fallbacks", "count"},
	{"gen.lag_ms.p90", "ms"}, {"go.heap_peak_mb", "MB"},
	{"trace.overhead.solve", "ratio"}, {"trace.overhead.done", "ratio"}, {"ref.serial_s", "s"},
}

var workloads = map[string]func(*env, *pass, time.Time) error{
	"steady":   (*env).steady,
	"periodic": (*env).periodic,
	"failover": (*env).failover,
}

// procs is each workload's GOMAXPROCS (capped by the host's CPUs). The
// failover workload's ranks mostly sleep; on one P its recovery timings
// do not depend on waking a second, possibly descheduled, virtual CPU,
// and its run-to-run spread was a third of that on two.
var procs = map[string]int{"steady": 2, "periodic": 2, "failover": 1}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// runPass runs one workload for the given time and returns its pass.
func runPass(e *env, name string, d time.Duration) (*pass, error) {
	p := newPass()
	if err := workloads[name](e, p, time.Now().Add(d)); err != nil {
		return nil, err
	}
	return p, nil
}

// endToEndValues reduces a pass to the end-to-end metrics.
func endToEndValues(p *pass) map[string]float64 {
	return map[string]float64{
		"setup_s":      p.setup.median(),
		"solve_s":      p.solve.median(),
		"stall_ms.p50": p.stall.median(),
		"stall_ms.p90": p.stall.pct(90),
		"done_ms.p50":  p.done.median(),
		"done_ms.p90":  p.done.pct(90),
	}
}

// printCounts reports the number of samples behind the end-to-end values.
func (p *pass) printCounts() {
	fmt.Fprintf(os.Stderr, "perfbench: samples: setup %d, solve %d, stall %d, done %d\n",
		len(p.setup), len(p.solve), len(p.stall), len(p.done))
}

// heapPeak samples the Go heap until stop is closed; wait returns the
// peak in MB once the sampler has exited.
func heapPeak(stop <-chan struct{}) (wait func() float64) {
	var peak atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			var m goruntime.MemStats
			goruntime.ReadMemStats(&m)
			if m.HeapAlloc > peak.Load() {
				peak.Store(m.HeapAlloc)
			}
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 {
		wg.Wait()
		return float64(peak.Load()) / (1 << 20)
	}
}

func run(cfg config, workload string, seed int64, seconds int, traced bool, outDir string) (report, error) {
	if _, ok := workloads[workload]; !ok {
		return report{}, fmt.Errorf("unknown workload %q (steady, periodic, failover)", workload)
	}
	dur := time.Duration(seconds) * time.Second
	// Warm up unmeasured: one minimal pass of the same workload, so the
	// host and the Go runtime are in their running state before timing.
	warm := &env{cfg: cfg, seed: seed}
	warm.cfg.MinJobs, warm.cfg.Builds = 1, 1
	if _, err := runPass(warm, workload, 0); err != nil {
		return report{}, fmt.Errorf("warm-up: %w", err)
	}
	plain := &env{cfg: cfg, seed: seed}
	var vals map[string]float64
	var defs []metricDef
	rep := report{Metrics: map[string]metricOut{}}
	if !traced {
		p, err := runPass(plain, workload, dur)
		if err != nil {
			return report{}, err
		}
		vals, defs = endToEndValues(p), endToEnd
		p.printCounts()
		rep.Attempted, rep.Failed = plain.attempted, plain.failed
		rep.Correct = plain.wrong == 0
	} else {
		// The traced half runs between two untraced quarters, so drift over
		// the run cancels in trace.overhead. Memory is measured on the first
		// quarter, before the traced half has kept any spans.
		stop := make(chan struct{})
		peak := heapPeak(stop)
		base, err := runPass(plain, workload, dur/4)
		close(stop)
		heapMB := peak()
		if err != nil {
			return report{}, err
		}
		tenv := &env{cfg: cfg, seed: seed, tr: newTracer(workload), store: newStoreStats()}
		p, err := runPass(tenv, workload, dur/2)
		if err != nil {
			return report{}, err
		}
		after, err := runPass(plain, workload, dur/4)
		if err != nil {
			return report{}, err
		}
		base.merge(after)
		base.printCounts()
		p.stepLayer()
		vals, defs = p.layer, perLayer
		vals["go.heap_peak_mb"] = heapMB
		vals["go.alloc_bytes_per_step"] = base.alloc.median()
		b, t := endToEndValues(base), endToEndValues(p)
		vals["stall_ms.p90"], vals["done_ms.p90"] = b["stall_ms.p90"], b["done_ms.p90"]
		vals["trace.overhead.solve"] = ratio(t["solve_s"], b["solve_s"]) - 1
		vals["trace.overhead.done"] = ratio(t["done_ms.p50"], b["done_ms.p50"]) - 1
		rep.Attempted = plain.attempted + tenv.attempted
		rep.Failed = plain.failed + tenv.failed
		rep.Correct = plain.wrong+tenv.wrong == 0
		vals["failed_ratio"] = ratio(float64(rep.Failed), float64(rep.Attempted))
		plain.notes = append(plain.notes, tenv.notes...)
		path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.trace.json", workload, seed))
		if err := tenv.tr.write(path); err != nil {
			return report{}, fmt.Errorf("write span file: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
		// The serial oracle's own time on the workload's largest problem.
		cells, steps := problem(cfg, workload)
		start := time.Now()
		jacobi(cfg.NP, cells, steps)
		vals["ref.serial_s"] = time.Since(start).Seconds()
	}
	for _, n := range plain.notes {
		fmt.Fprintln(os.Stderr, "perfbench:", n)
	}
	for _, m := range defs {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rep.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
	}
	if rep.Attempted == 0 {
		return rep, fmt.Errorf("no operation attempted")
	}
	return rep, nil
}

// problem is the cells per rank and step count of a workload's largest
// job.
func problem(c config, w string) (cells, steps int) {
	switch w {
	case "steady":
		return c.Steady.Cells, c.Steady.Steps
	case "periodic":
		return c.Periodic.Cells, c.Periodic.Steps
	}
	return c.Failover.Cells, c.Failover.Lineage*c.Failover.Every + c.Failover.Tail
}

func main() {
	workload := flag.String("workload", "", "workload: steady, periodic or failover")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured time per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run (per-layer metrics and a span file)")
	out := flag.String("out", filepath.Join(".bench_build", "traces"), "directory for span files")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if n, ok := procs[*workload]; ok {
		goruntime.GOMAXPROCS(min(n, goruntime.NumCPU()))
	}

	rep, err := run(defaultConfig(), *workload, *seed, *seconds, *traceFlag == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if m, ok := rep.Metrics[d.name]; ok {
			fmt.Printf("%-36s %16.6f %s\n", d.name, m.Value, m.Unit)
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}
