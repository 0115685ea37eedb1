package main

import (
	"errors"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/core/snapshot"
	"repro/internal/ompi"
	"repro/internal/orte/snapc"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// pass holds what one run of a workload measured: the end-to-end sample
// sets, the per-step samples of the App wrappers, and the per-layer
// values of a traced run.
type pass struct {
	setup, solve samples // seconds
	stall, done  samples // milliseconds
	// step, boundary and body are per-step wrapper timings (µs): entry
	// to next entry, return to next entry, entry to return.
	step, boundary, body samples
	alloc                samples // bytes allocated per step, per job (steady)
	layer                map[string]float64
}

// merge pools another pass's end-to-end and allocation samples into p.
func (p *pass) merge(o *pass) {
	p.setup = append(p.setup, o.setup...)
	p.solve = append(p.solve, o.solve...)
	p.stall = append(p.stall, o.stall...)
	p.done = append(p.done, o.done...)
	p.alloc = append(p.alloc, o.alloc...)
}

// collect pools a finished job's per-step samples.
func (p *pass) collect(w *watch) {
	if !w.keep {
		return
	}
	st, bd, by := w.stepSamples()
	p.step, p.boundary, p.body = append(p.step, st...), append(p.boundary, bd...), append(p.body, by...)
}

func newPass() *pass { return &pass{layer: make(map[string]float64)} }

// ckptRecord is one committed checkpoint seen from outside.
type ckptRecord struct {
	blocked, commit time.Duration
	step            int // the checkpoint's step (rank 0's when the capture returned)
	interval        int
	phases          snapshot.PhaseBreakdown
	// image is the interval's per-rank image bytes written to stable
	// storage (traced runs only).
	image float64
	// sync marks a synchronous checkpoint: its blocked time is the
	// program's own Phases.BlockedNS, not a time measured from outside,
	// so it yields no coordination share.
	sync bool
}

// ckptLog gathers checkpoint records from concurrent ticket waiters.
type ckptLog struct {
	mu   sync.Mutex
	recs []ckptRecord
}

func (l *ckptLog) add(r ckptRecord) {
	l.mu.Lock()
	l.recs = append(l.recs, r)
	l.mu.Unlock()
}

// counters sums the program's own trace counters across the systems of
// a run.
type counters map[string]int64

func (c counters) add(ins *trace.Instrumentation) {
	for _, n := range counterNames {
		c[n] += ins.Counter(n).Value()
	}
}

var counterNames = []string{
	"ompi_crcp_quiesce_failed_total",
	"ompi_snapc_captures_blocked_total",
	"ompi_snapc_intervals_aborted_total",
	"ompi_filem_retries_total",
	"ompi_restart_restored_bytes_total",
	"ompi_recovery_sessions_total",
	"ompi_recovery_detect_ns_total",
	"ompi_recovery_resolve_ns_total",
	"ompi_recovery_respawn_ns_total",
	"ompi_recovery_reknit_ns_total",
	"ompi_recovery_restored_bytes_total",
	"ompi_recovery_fallbacks_total",
}

// waitFor blocks until a completes, the job ends without it, or the
// timeout passes.
func waitFor(a *arrival, jobDone func() bool, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-a.done:
			return nil
		case <-time.After(time.Millisecond):
		}
		if jobDone() {
			select {
			case <-a.done:
				return nil
			default:
				return errors.New("job ended before every rank stepped")
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ranks not stepping after %v", timeout)
		}
	}
}

// stateBytes is the registered application state of one rank: the
// stencil's cells plus its step counter.
func stateBytes(cells int) float64 { return float64(8*cells + 8) }

// --- steady -------------------------------------------------------------------

// steady runs checkpoint-free stencil jobs back to back: every step is
// the message path plus the per-step C/R boundary agreement, and no
// snapshot layer does any work.
func (e *env) steady(p *pass, until time.Time) error {
	c := e.cfg.Steady
	for jobs := 0; jobs < e.cfg.MinJobs || time.Now().Before(until); jobs++ {
		goruntime.GC()
		var ms0 goruntime.MemStats
		goruntime.ReadMemStats(&ms0)
		t0 := time.Now()
		sys, _, err := e.newSystem(e.cfg.Nodes, nil, nil)
		if err != nil {
			return err
		}
		w := e.watch(c.Cells, c.Steps, 0)
		w.keep = true // stall and done are per-step timings here
		launch := time.Now()
		job, err := sys.Launch(core.JobSpec{Name: "stencil", Args: stencilArgs(c.Steps, c.Cells, 0), NP: e.cfg.NP, AppFactory: w.factory})
		if err != nil {
			sys.Close()
			return err
		}
		started := w.cur.Load()
		if err := waitFor(started, job.Done, time.Minute); err == nil {
			p.setup.add(started.when().Sub(t0).Seconds())
		}
		jerr := job.Wait()
		p.solve.add(time.Since(launch).Seconds())
		var ms1 goruntime.MemStats
		goruntime.ReadMemStats(&ms1)
		p.alloc.add(float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(c.Steps))
		e.verify("steady", w, jerr)
		sys.Close()
		p.collect(w)
	}
	for _, v := range p.boundary {
		p.stall.add(v / 1e3)
	}
	for _, v := range p.step {
		p.done.add(v / 1e3)
	}
	return nil
}

// stepLayer fills the ompi per-layer metrics from per-step samples (µs).
func (p *pass) stepLayer() {
	p.layer["ompi.step_us.p50"] = p.step.median()
	p.layer["ompi.boundary_us.p50"] = p.boundary.median()
	p.layer["ompi.boundary_us.p90"] = p.boundary.pct(90)
	p.layer["ompi.body_us.p50"] = p.body.median()
	p.layer["ompi.boundary_share"] = ratio(p.boundary.sum(), p.step.sum())
}

// --- periodic -----------------------------------------------------------------

// periodic runs stencil jobs under an open-loop checkpoint schedule: a
// request is due every Every from a seeded phase, whether or not the
// previous one finished; each request is timed from its due time, and
// each ticket's commit is stamped by its own waiter.
func (e *env) periodic(p *pass, until time.Time) error {
	c := e.cfg.Periodic
	rng := rand.New(rand.NewSource(e.seed))
	var recs ckptLog
	var lag samples
	var resolve samples
	var simNS int64
	cnt := counters{}
	before := e.storeSnap()
	for jobs := 0; jobs < e.cfg.MinJobs || time.Now().Before(until); jobs++ {
		goruntime.GC()
		phase := time.Duration(rng.Int63n(int64(c.Every)))
		var lastIv atomic.Int64
		lastIv.Store(-1)
		var drainSpan sync.Map // interval → drain span id
		parentOf := func(iv int) int64 {
			if v, ok := drainSpan.Load(iv); ok {
				return v.(int64)
			}
			return 0
		}
		jobStore, jobRecs := e.storeSnap(), len(recs.recs)
		t0 := time.Now()
		sys, ins, err := e.newSystem(e.cfg.Nodes, nil, parentOf)
		if err != nil {
			return err
		}
		w := e.watch(c.Cells, c.Steps, c.Delay)
		w.interval = func() int { return int(lastIv.Load()) }
		launch := time.Now()
		job, err := sys.Launch(core.JobSpec{Name: "stencil", Args: stencilArgs(c.Steps, c.Cells, c.Delay), NP: e.cfg.NP, AppFactory: w.factory})
		if err != nil {
			sys.Close()
			return err
		}
		started := w.cur.Load()
		if err := waitFor(started, job.Done, time.Minute); err == nil {
			p.setup.add(started.when().Sub(t0).Seconds())
		}
		clock0 := sys.Cluster().Clock().Elapsed()

		// The one load-generating goroutine: this loop.
		var waiters sync.WaitGroup
		stopAt := c.Steps - c.StopMargin
		for k := 0; ; k++ {
			due := launch.Add(phase + time.Duration(k)*c.Every)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			if job.Done() || int(w.progress.Load()) >= stopAt {
				break
			}
			call := time.Now()
			lag.add(ms(call.Sub(due)))
			rootID, drainID := e.tr.id(), e.tr.id()
			tk, err := job.CheckpointAsync(false)
			ret := time.Now()
			if errors.Is(err, ompi.ErrFinalized) {
				// The request raced the job's finalize; not an attempt.
				break
			}
			e.attempted++
			if err != nil {
				e.fail("periodic: checkpoint request: %v", err)
				continue
			}
			iv := tk.Interval()
			lastIv.Store(int64(iv))
			drainSpan.Store(iv, drainID)
			e.tr.add(span{parent: rootID, name: "ckpt.capture", start: call, end: ret, interval: iv, rank: -1})
			rec := ckptRecord{blocked: ret.Sub(call), step: int(w.progress.Load()), interval: iv}
			waiters.Add(1)
			go func(due time.Time) {
				defer waiters.Done()
				res, err := tk.Wait()
				end := time.Now()
				e.tr.add(span{id: drainID, parent: rootID, name: "ckpt.drain", start: ret, end: end, interval: iv, rank: -1})
				e.tr.add(span{id: rootID, name: "ckpt.interval", start: due, end: end, interval: iv, rank: -1})
				if err != nil {
					rec.commit = -1
				} else {
					rec.commit = end.Sub(due)
					if res.Meta.Phases != nil {
						rec.phases = *res.Meta.Phases
					}
				}
				recs.add(rec)
			}(due)
		}
		jerr := job.Wait()
		p.solve.add(time.Since(launch).Seconds())
		waiters.Wait()
		sys.FlushDrains()
		e.images(recs.recs[jobRecs:], jobStore)
		simNS += int64(sys.Cluster().Clock().Elapsed() - clock0)
		e.verify("periodic", w, jerr)
		if e.traced() {
			r0 := time.Now()
			if _, _, _, err := sys.Resolver(job.Lineage()).LatestValid(); err == nil {
				resolve.add(ms(time.Since(r0)))
			}
		}
		cnt.add(ins)
		sys.Close()
		p.collect(w)
	}

	var committed []ckptRecord
	for _, r := range recs.recs {
		if r.commit < 0 {
			e.fail("periodic: interval %d failed to commit", r.interval)
			continue
		}
		committed = append(committed, r)
		p.stall.add(ms(r.blocked))
		p.done.add(ms(r.commit))
	}
	if e.traced() {
		ckptLayer(p, committed)
		p.layer["gen.lag_ms.p90"] = lag.pct(90)
		p.layer["filem.sim_ms_per_ckpt"] = ratio(float64(simNS)/1e6, float64(len(committed)))
		p.layer["snapshot.resolve_ms.p50"] = resolve.median()
		counterLayer(p, cnt, len(committed))
		e.storeLayer(p, e.storeSnap().sub(before), len(committed), c.Cells, committed)
	}
	return nil
}

// ckptLayer fills the checkpoint-path per-layer metrics from committed
// checkpoints.
func ckptLayer(p *pass, recs []ckptRecord) {
	var blocked, commit, quiesce, capture, coord, dwait, drain, gather, cmt samples
	var moved, gathered, deduped float64
	for _, r := range recs {
		ph := r.phases
		blocked.add(ms(r.blocked))
		commit.add(ms(r.commit))
		quiesce.add(float64(ph.QuiesceWallNS) / 1e6)
		capture.add(float64(ph.CaptureWallNS) / 1e6)
		if !r.sync {
			coord.add(ms(r.blocked) - float64(ph.QuiesceWallNS+ph.CaptureWallNS)/1e6)
		}
		dwait.add(float64(ph.DrainWaitNS) / 1e6)
		drain.add(float64(ph.DrainNS) / 1e6)
		gather.add(float64(ph.GatherNS) / 1e6)
		cmt.add(float64(ph.CommitNS) / 1e6)
		moved += float64(ph.BytesMoved)
		gathered += float64(ph.BytesGathered)
		deduped += float64(ph.BytesDeduped)
	}
	n := float64(len(recs))
	p.layer["ckpt_blocked_ms.p50"] = blocked.median()
	p.layer["ckpt_blocked_ms.p90"] = blocked.pct(90)
	p.layer["commit_ms.p50"] = commit.median()
	p.layer["commit_ms.p90"] = commit.pct(90)
	p.layer["crcp.quiesce_ms.p50"] = quiesce.median()
	p.layer["crs.capture_ms.p50"] = capture.median()
	p.layer["snapc.coord_ms.p50"] = coord.median()
	p.layer["snapc.drain_wait_ms.p50"] = dwait.median()
	p.layer["snapc.drain_ms.p50"] = drain.median()
	p.layer["filem.gather_ms.p50"] = gather.median()
	p.layer["snapshot.commit_ms.p50"] = cmt.median()
	p.layer["filem.bytes_moved_per_ckpt"] = ratio(moved, n)
	p.layer["filem.dedup_ratio"] = ratio(deduped, gathered)
}

// counterLayer fills per-layer metrics read from the program's counters.
func counterLayer(p *pass, c counters, ckpts int) {
	p.layer["crcp.quiesce_failed"] = float64(c["ompi_crcp_quiesce_failed_total"])
	p.layer["snapc.backpressure_per_ckpt"] = ratio(float64(c["ompi_snapc_captures_blocked_total"]), float64(ckpts))
	p.layer["snapc.aborted"] = float64(c["ompi_snapc_intervals_aborted_total"])
	p.layer["filem.retries"] = float64(c["ompi_filem_retries_total"])
	sessions := float64(c["ompi_recovery_sessions_total"])
	p.layer["recovery.detect_ms"] = ratio(float64(c["ompi_recovery_detect_ns_total"])/1e6, sessions)
	p.layer["recovery.resolve_ms"] = ratio(float64(c["ompi_recovery_resolve_ns_total"])/1e6, sessions)
	p.layer["recovery.respawn_ms"] = ratio(float64(c["ompi_recovery_respawn_ns_total"])/1e6, sessions)
	p.layer["recovery.reknit_ms"] = ratio(float64(c["ompi_recovery_reknit_ns_total"])/1e6, sessions)
	p.layer["recovery.restored_bytes"] = ratio(float64(c["ompi_recovery_restored_bytes_total"]), sessions)
	p.layer["recovery.fallbacks"] = float64(c["ompi_recovery_fallbacks_total"])
}

// images attributes the probe's per-interval data writes since an
// earlier snapshot to the checkpoints of one system (interval numbers
// restart with every system, so attribution is per system).
func (e *env) images(recs []ckptRecord, since storeTotals) {
	if e.store == nil {
		return
	}
	d := e.storeSnap().sub(since)
	for i := range recs {
		recs[i].image = float64(d.dataWrites[recs[i].interval]) / float64(e.cfg.NP)
	}
}

func (e *env) storeSnap() storeTotals {
	if e.store == nil {
		return storeTotals{}
	}
	return e.store.snapshot()
}

// storeLayer fills the stable-store metrics from the probe's counts over
// a window that committed ckpts checkpoints, and the image metrics from
// the per-interval data writes.
func (e *env) storeLayer(p *pass, d storeTotals, ckpts, cells int, recs []ckptRecord) {
	n := float64(ckpts)
	j, l, dt, m := d.all[classJournal], d.all[classLedger], d.all[classData], d.all[classMeta]
	p.layer["store.journal.bytes_per_ckpt"] = ratio(float64(j.bytes), n)
	p.layer["store.journal.ops_per_ckpt"] = ratio(float64(j.ops), n)
	p.layer["store.journal.ms_per_ckpt"] = ratio(ms(j.dur), n)
	p.layer["store.ledger.bytes_per_ckpt"] = ratio(float64(l.bytes), n)
	p.layer["store.ledger.ops_per_ckpt"] = ratio(float64(l.ops), n)
	p.layer["store.ledger.ms_per_ckpt"] = ratio(ms(l.dur), n)
	p.layer["store.data.bytes_per_ckpt"] = ratio(float64(dt.bytes), n)
	p.layer["store.data.ms_per_ckpt"] = ratio(ms(dt.dur), n)
	p.layer["store.meta.ops_per_ckpt"] = ratio(float64(m.ops), n)
	var img samples
	var xs, ys []float64
	for _, r := range recs {
		if r.image > 0 {
			img.add(r.image)
			xs, ys = append(xs, float64(r.step)), append(ys, r.image)
		}
	}
	p.layer["crs.image_bytes.p50"] = img.median()
	p.layer["crs.image_overhead"] = ratio(img.median(), stateBytes(cells))
	p.layer["crs.image_bytes_per_step"] = slope(xs, ys)
}

// --- failover -----------------------------------------------------------------

// cycle kinds of the failover workload.
const (
	kindInJob = iota // node kill → in-job recovery from KeepLocal stages
	kindHold         // node kill after L1 seal + L2 promote → RestartFromHold
	kindCold         // fresh system → OpenGlobalSnapshot + RestartLatest
	numKinds
)

// failoverStats are the per-kind samples of the failover workload.
type failoverStats struct {
	recover, hold, restart         samples // ms, failure/restart → every rank stepping
	seal, promote                  samples // ms
	relaunch, resume, holdRelaunch samples // ms
	resolve                        samples // ms
	restoredPerRestart             samples // bytes
	reads                          storeCount
	restarts                       int
}

// buildLineage boots a system on a fresh store and runs one stencil job
// that commits Lineage checkpoints, each pinned to a fixed step, then
// finishes at the lineage's final step. Returns the store and the
// lineage's directory on it.
func (e *env) buildLineage(recs *[]ckptRecord, cnt counters, simNS *int64) (*vfs.Mem, string, error) {
	c := e.cfg.Failover
	base := vfs.NewMem()
	sys, ins, err := e.newSystem(e.cfg.Nodes+1, base, nil)
	if err != nil {
		return nil, "", err
	}
	defer sys.Close()
	steps := c.Lineage*c.Every + c.Tail
	w := newWatch(e.cfg.NP, c.Cells, steps, c.Delay)
	g := w.park(c.Every)
	clock0 := sys.Cluster().Clock().Elapsed()
	store0, first := e.storeSnap(), len(*recs)
	job, err := sys.Launch(core.JobSpec{Name: "stencil", Args: stencilArgs(steps, c.Cells, c.Delay), NP: e.cfg.NP, AppFactory: w.factory})
	if err != nil {
		return nil, "", err
	}
	for k := 1; k <= c.Lineage; k++ {
		frontier, next := k*c.Every, 0
		if k < c.Lineage {
			next = frontier + c.Every
		}
		var res core.CheckpointResult
		var call, ret time.Time
		e.attempted++
		g, err = w.pinned(ins.TraceLog(), g, next, job.Done, func() error {
			var err error
			call = time.Now()
			res, err = job.Checkpoint(false)
			ret = time.Now()
			return err
		})
		if err != nil {
			e.fail("failover: lineage checkpoint at step %d: %v", frontier, err)
			continue
		}
		rec := ckptRecord{commit: ret.Sub(call), step: frontier, interval: res.Interval, sync: true}
		if res.Meta.Phases != nil {
			rec.phases = *res.Meta.Phases
			rec.blocked = time.Duration(res.Meta.Phases.BlockedNS)
		}
		*recs = append(*recs, rec)
	}
	e.verify("failover lineage", w, job.Wait())
	e.images((*recs)[first:], store0)
	*simNS += int64(sys.Cluster().Clock().Elapsed() - clock0)
	cnt.add(ins)
	return base, job.Lineage(), nil
}

// failover builds the lineage (the set-up, repeated Builds times), then
// runs failure cycles until the deadline, rotating through the three
// kinds; each cycle runs on a fresh system over a copy of the lineage's
// store and ends with the job at its final step, checked by the oracle.
func (e *env) failover(p *pass, until time.Time) error {
	c := e.cfg.Failover
	rng := rand.New(rand.NewSource(e.seed))
	cnt := counters{}
	var lineageRecs []ckptRecord
	var simNS int64
	before := e.storeSnap()
	var base *vfs.Mem
	var lineage string
	for b := 0; b < e.cfg.Builds; b++ {
		goruntime.GC()
		t0 := time.Now()
		lineageRecs = lineageRecs[:0]
		var err error
		if base, lineage, err = e.buildLineage(&lineageRecs, cnt, &simNS); err != nil {
			return err
		}
		p.setup.add(time.Since(t0).Seconds())
	}
	lineageStore := e.storeSnap().sub(before)

	var fs failoverStats
	start := rng.Intn(numKinds)
	for n := 0; n < e.cfg.MinJobs*numKinds || time.Now().Before(until); n++ {
		kind := (start + n) % numKinds
		store := vfs.NewMem()
		if _, err := vfs.CopyTree(base, ".", store, "."); err != nil {
			return fmt.Errorf("failover: copy lineage: %w", err)
		}
		goruntime.GC()
		sys, ins, err := e.newSystem(e.cfg.Nodes+1, store, nil)
		if err != nil {
			return err
		}
		if kind == kindCold {
			e.coldCycle(p, sys, lineage, &fs)
		} else {
			e.failCycle(p, sys, ins, kind, rng, &fs)
		}
		cnt.add(ins)
		sys.Close()
	}
	if e.traced() {
		ckptLayer(p, lineageRecs)
		p.layer["filem.sim_ms_per_ckpt"] = ratio(float64(simNS)/1e6, float64(len(lineageRecs)*e.cfg.Builds))
		counterLayer(p, cnt, len(lineageRecs)*e.cfg.Builds)
		e.storeLayer(p, lineageStore, len(lineageRecs)*e.cfg.Builds, c.Cells, lineageRecs)
		p.layer["recover_ms.p50"] = fs.recover.median()
		p.layer["recover_ms.p90"] = fs.recover.pct(90)
		p.layer["hold_restart_ms.p50"] = fs.hold.median()
		p.layer["hold_restart_ms.p90"] = fs.hold.pct(90)
		p.layer["restart_ms.p50"] = fs.restart.median()
		p.layer["restart_ms.p90"] = fs.restart.pct(90)
		p.layer["levels.seal_ms.p50"] = fs.seal.median()
		p.layer["levels.promote_ms.p50"] = fs.promote.median()
		p.layer["runtime.relaunch_ms.p50"] = fs.relaunch.median()
		p.layer["runtime.resume_ms.p50"] = fs.resume.median()
		p.layer["runtime.hold_relaunch_ms.p50"] = fs.holdRelaunch.median()
		p.layer["runtime.restored_bytes_per_restart"] = fs.restoredPerRestart.median()
		p.layer["snapshot.resolve_ms.p50"] = fs.resolve.median()
		r := float64(fs.restarts)
		p.layer["store.read.bytes_per_restart"] = ratio(float64(fs.reads.bytes), r)
		p.layer["store.read.ops_per_restart"] = ratio(float64(fs.reads.ops), r)
		p.layer["store.read.ms_per_restart"] = ratio(ms(fs.reads.dur), r)
	}
	return nil
}

// coldCycle restarts the lineage's newest interval on a fresh system and
// runs it to the lineage's final step.
func (e *env) coldCycle(p *pass, sys *core.System, lineage string, fs *failoverStats) {
	c := e.cfg.Failover
	steps := c.Lineage*c.Every + c.Tail
	w := e.watch(c.Cells, steps, c.Delay)
	if e.traced() {
		r0 := time.Now()
		if _, _, _, err := sys.Resolver(lineage).LatestValid(); err == nil {
			fs.resolve.add(ms(time.Since(r0)))
		}
	}
	restoredBefore := sys.Ins().Counter("ompi_restart_restored_bytes_total").Value()
	reads := e.storeSnap()
	e.attempted++
	t := time.Now()
	ref, err := sys.OpenGlobalSnapshot(lineage)
	var job *core.Job
	if err == nil {
		job, err = sys.RestartLatest(ref, w.factory)
	}
	relaunched := time.Now()
	if err != nil {
		e.fail("failover: cold restart: %v", err)
		return
	}
	stepping := w.cur.Load()
	if err := waitFor(stepping, job.Done, time.Minute); err != nil {
		e.fail("failover: cold restart: %v", err)
	} else {
		at := stepping.when()
		fs.restart.add(ms(at.Sub(t)))
		fs.relaunch.add(ms(relaunched.Sub(t)))
		fs.resume.add(ms(at.Sub(relaunched)))
		p.stall.add(ms(at.Sub(t)))
		fs.restarts++
		fs.reads.add(e.storeSnap().sub(reads).reads)
		e.tr.add(span{name: "restart.relaunch", start: t, end: relaunched, interval: -1, rank: -1})
		e.tr.add(span{name: "restart.resume", start: relaunched, end: at, interval: -1, rank: -1})
	}
	fs.restoredPerRestart.add(float64(sys.Ins().Counter("ompi_restart_restored_bytes_total").Value() - restoredBefore))
	jerr := job.Wait()
	p.done.add(ms(time.Since(t)))
	p.solve.add(time.Since(t).Seconds())
	e.verify("failover cold restart", w, jerr)
	p.collect(w)
}

// failCycle launches a job on the lineage, takes one checkpoint pinned to
// a fixed step (KeepLocal for in-job recovery; an L1 seal plus L2
// promotion for hold restart), kills a seeded node at a seeded later
// step, and measures until every rank steps again and the job finishes.
func (e *env) failCycle(p *pass, sys *core.System, ins *trace.Instrumentation, kind int, rng *rand.Rand, fs *failoverStats) {
	c := e.cfg.Failover
	cl := sys.Cluster()
	w := e.watch(c.Cells, c.CycleSteps, c.Delay)
	what := "failover in-job"
	if kind == kindHold {
		what = "failover hold"
	}
	killStep := c.CkptStep + c.KillMin + rng.Intn(c.KillMax-c.KillMin+1)
	victimRank := rng.Intn(e.cfg.NP)
	g := w.park(c.CkptStep)
	t0 := time.Now()
	job, err := sys.Launch(core.JobSpec{Name: "stencil", Args: stencilArgs(c.CycleSteps, c.Cells, c.Delay), NP: e.cfg.NP, AppFactory: w.factory})
	e.attempted++
	if err != nil {
		e.fail("%s: launch: %v", what, err)
		return
	}
	defer p.collect(w)
	if kind == kindInJob {
		job.EnableRecovery()
	}
	kg, err := w.pinned(ins.TraceLog(), g, killStep, job.Done, func() error {
		if kind == kindInJob {
			_, err := cl.CheckpointJob(job.JobID(), snapc.Options{KeepLocal: true})
			return err
		}
		s0 := time.Now()
		_, err := cl.CheckpointJobLevel(job.JobID(), snapshot.LevelLocal, snapc.Options{})
		fs.seal.add(ms(time.Since(s0)))
		return err
	})
	if err == nil && kind == kindHold {
		s0 := time.Now()
		_, ok, perr := cl.PromoteJobReplicas(job.JobID())
		fs.promote.add(ms(time.Since(s0)))
		if perr == nil && !ok {
			perr = errors.New("nothing to promote")
		}
		err = perr
	}
	if err == nil {
		err = kg.wait(job.Done)
	}
	if err != nil {
		e.fail("%s: checkpoint: %v", what, err)
		w.open(kg)
		job.Wait()
		return
	}
	// Every rank is parked right after killStep: kill the victim's node,
	// then let the ranks run into the failure.
	victim := job.NodeOf(victimRank)
	back := w.arm()
	tk := time.Now()
	err = cl.KillNode(victim)
	w.open(kg)
	if err != nil {
		e.fail("%s: kill %s: %v", what, victim, err)
		job.Wait()
		return
	}
	switch kind {
	case kindInJob:
		if err := waitFor(back, job.Done, time.Minute); err != nil {
			e.fail("%s: %v", what, err)
		} else {
			fs.recover.add(ms(back.when().Sub(tk)))
			p.stall.add(ms(back.when().Sub(tk)))
			e.tr.add(span{name: "recovery.kill-to-stepping", start: tk, end: back.when(), interval: -1, rank: -1})
		}
		jerr := job.Wait()
		p.done.add(ms(time.Since(tk)))
		p.solve.add(time.Since(t0).Seconds())
		if fb := sys.Recovery().Stats().Fallbacks; fb > 0 {
			e.fail("%s: %d recovery fallback(s)", what, fb)
		}
		e.verify(what, w, jerr)
	case kindHold:
		if job.Wait() == nil {
			e.fail("%s: job survived the loss of %s without recovery", what, victim)
			return
		}
		sys.FlushDrains()
		next := e.watch(c.Cells, c.CycleSteps, c.Delay)
		r0 := time.Now()
		nj, _, err := cl.RestartFromHold(job.Job, next.factory)
		fs.holdRelaunch.add(ms(time.Since(r0)))
		if err != nil {
			e.fail("%s: restart from hold: %v", what, err)
			return
		}
		stepping := next.cur.Load()
		if err := waitFor(stepping, nj.Done, time.Minute); err != nil {
			e.fail("%s: %v", what, err)
		} else {
			fs.hold.add(ms(stepping.when().Sub(tk)))
			p.stall.add(ms(stepping.when().Sub(tk)))
			e.tr.add(span{name: "hold.kill-to-stepping", start: tk, end: stepping.when(), interval: -1, rank: -1})
		}
		jerr := nj.Wait()
		p.done.add(ms(time.Since(tk)))
		p.solve.add(time.Since(t0).Seconds())
		e.verify(what, next, jerr)
		p.collect(next)
	}
}
