package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/mca"
	"repro/internal/ompi"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// stack is the MCA stack every workload runs on: the default C/R
// components, FILEM raw with dedup, the HNP ledger on, and block
// placement so an np=8 job fills four 2-slot nodes and a fifth node
// stays spare for recovery.
var stack = map[string]string{
	"crcp":        "bkmrk",
	"crs":         "simcr",
	"filem":       "raw",
	"filem_dedup": "true",
	"snapc":       "full",
	"hnp_ledger":  "true",
	"plm":         "slurmsim",
}

const slotsPerNode = 2

// env is what one workload run shares: sizes, the tracer and store
// probe counters of a traced run (nil otherwise), and the failure tally.
type env struct {
	cfg   config
	seed  int64
	tr    *tracer
	store *storeStats

	attempted, failed int
	wrong             int // oracle mismatches and failed jobs
	notes             []string
}

// traced reports whether this is the traced run.
func (e *env) traced() bool { return e.tr != nil }

// watch builds a watch for one job incarnation of this run: traced runs
// keep per-step samples and record step spans.
func (e *env) watch(cells, steps int, delay time.Duration) *watch {
	w := newWatch(e.cfg.NP, cells, steps, delay)
	w.keep, w.tr = e.traced(), e.tr
	return w
}

func (e *env) fail(format string, args ...any) {
	e.failed++
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

// newSystem boots a cluster on the benchmark stack. A traced run wraps
// the stable store in the probe; parentOf links store calls to spans.
func (e *env) newSystem(nodes int, stable vfs.FS, parentOf func(int) int64) (*core.System, *trace.Instrumentation, error) {
	params := mca.NewParams()
	for k, v := range stack {
		params.Set(k, v)
	}
	if stable == nil {
		stable = vfs.NewMem()
	}
	if e.store != nil {
		stable = &storeProbe{fs: stable, stats: e.store, tr: e.tr, parentOf: parentOf}
	}
	ins := trace.New()
	sys, err := core.NewSystem(core.Options{
		Nodes: nodes, SlotsPerNode: slotsPerNode, Params: params, Stable: stable, Ins: ins,
	})
	return sys, ins, err
}

func stencilArgs(steps, cells int, delay time.Duration) []string {
	return []string{"-steps", fmt.Sprint(steps), "-cells", fmt.Sprint(cells), "-delay", delay.String()}
}

// arrival completes once need parties have arrived and remembers when.
type arrival struct {
	need  int32
	count atomic.Int32
	at    atomic.Int64 // unix ns of the completing arrival
	done  chan struct{}
}

func newArrival(n int) *arrival { return &arrival{need: int32(n), done: make(chan struct{})} }

func (a *arrival) arrive() {
	if a.count.Add(1) == a.need {
		a.at.Store(time.Now().UnixNano())
		close(a.done)
	}
}

func (a *arrival) when() time.Time { return time.Unix(0, a.at.Load()) }

// gate stops every rank at the entry of the step that starts from
// State.Iter == step (step completed steps), so a checkpoint or a failure
// lands on an exact frontier.
type gate struct {
	step    int
	parked  *arrival
	release chan struct{}
}

// watch observes one job incarnation from outside, through the App
// wrappers its factory builds. It never reaches into the program.
type watch struct {
	np       int
	cells    int
	steps    int
	delay    time.Duration
	tr       *tracer
	interval func() int // current interval for step spans; may be nil
	keep     bool       // keep per-step samples (steady, traced runs)

	// cur is the arrival a newly built or rolled-back rank owes at the
	// end of its next step: launch, recovery or restart.
	cur      atomic.Pointer[arrival]
	gate     atomic.Pointer[gate]
	progress atomic.Int64 // the step rank 0 last entered

	mu    sync.Mutex
	ranks []*rankApp // every wrapper built, respawns included
}

func newWatch(np, cells, steps int, delay time.Duration) *watch {
	w := &watch{np: np, cells: cells, steps: steps, delay: delay}
	w.cur.Store(newArrival(np))
	return w
}

// factory is the AppFactory handed to the program.
func (w *watch) factory(rank int) ompi.App {
	a := &rankApp{
		app:  &apps.StencilApp{Steps: w.steps, Cells: w.cells, Delay: w.delay},
		w:    w,
		rank: rank,
		owe:  w.cur.Load(),
	}
	w.mu.Lock()
	w.ranks = append(w.ranks, a)
	w.mu.Unlock()
	return a
}

// arm makes every rank owe a fresh arrival from its next rollback or
// rebuild on; returns it.
func (w *watch) arm() *arrival {
	a := newArrival(w.np)
	w.cur.Store(a)
	return a
}

// finals returns the final application of each rank: the last wrapper
// built for the rank slot.
func (w *watch) finals() []*apps.StencilApp {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]*apps.StencilApp, w.np)
	for _, a := range w.ranks {
		out[a.rank] = a.app
	}
	return out
}

// stepSamples pools the per-step timings of every wrapper (keep only).
func (w *watch) stepSamples() (step, boundary, body samples) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, a := range w.ranks {
		step = append(step, a.stepUS...)
		boundary = append(boundary, a.boundaryUS...)
		body = append(body, a.bodyUS...)
	}
	return
}

// rankApp wraps one rank's stencil. It times Step from outside and
// reports the arrivals the harness waits on; all its fields belong to
// the rank goroutine except those read after the job ended.
type rankApp struct {
	app  *apps.StencilApp
	w    *watch
	rank int

	owe      *arrival // arrival due at the end of the next step
	lastIter int
	lastRet  time.Time
	lastIn   time.Time

	stepUS, boundaryUS, bodyUS samples
}

func (a *rankApp) Setup(p *ompi.Proc) error { return a.app.Setup(p) }

func (a *rankApp) Step(p *ompi.Proc) (bool, error) {
	w := a.w
	in := time.Now()
	iter := a.app.State.Iter
	rolledBack := iter < a.lastIter
	if rolledBack && a.owe == nil {
		a.owe = w.cur.Load()
	}
	if a.rank == 0 {
		w.progress.Store(int64(iter))
	}
	if g := w.gate.Load(); g != nil && iter == g.step && !rolledBack {
		g.parked.arrive()
		<-g.release
		in = time.Now()
	}
	if w.keep && !a.lastRet.IsZero() && !rolledBack {
		a.boundaryUS.addDur(in.Sub(a.lastRet), time.Microsecond)
		a.stepUS.addDur(in.Sub(a.lastIn), time.Microsecond)
	}
	done, err := a.app.Step(p)
	ret := time.Now()
	if w.keep {
		a.bodyUS.addDur(ret.Sub(in), time.Microsecond)
	}
	if w.tr != nil {
		iv := -1
		if w.interval != nil {
			iv = w.interval()
		}
		w.tr.add(span{name: "ompi.step", start: in, end: ret, interval: iv, rank: a.rank})
	}
	if a.owe != nil {
		a.owe.arrive()
		a.owe = nil
	}
	a.lastIter, a.lastIn, a.lastRet = a.app.State.Iter, in, ret
	return done, err
}

// park installs a gate that stops every rank at the entry of step
// `frontier`: a checkpoint started while they wait is taken at the next
// step boundary, right after step `frontier`, and a node killed while they
// wait fails step `frontier`. Install it before the ranks get there:
// before Launch, or from pinned while the ranks wait at the previous gate.
func (w *watch) park(frontier int) *gate {
	g := &gate{step: frontier - 1, parked: newArrival(w.np), release: make(chan struct{})}
	w.gate.Store(g)
	return g
}

// wait blocks until every rank stopped at g, or fails once the job
// ended without that.
func (g *gate) wait(jobDone func() bool) error {
	if err := waitFor(g.parked, jobDone, time.Minute); err != nil {
		return fmt.Errorf("park at step %d: %w", g.step+1, err)
	}
	return nil
}

// open lets the ranks parked at g go on; a later gate installed with
// park stays armed.
func (w *watch) open(g *gate) {
	w.gate.CompareAndSwap(g, nil)
	close(g.release)
}

// pinned takes a checkpoint at exactly g's frontier: once every rank is
// parked at g it starts ckpt, waits until the checkpoint directive has
// reached every rank's node coordinator (the "ckpt.start" trace events
// the program already emits), installs the gate for `next` (none when
// 0), and only then opens g. Returns the next gate and ckpt's result.
func (w *watch) pinned(log *trace.Log, g *gate, next int, jobDone func() bool, ckpt func() error) (*gate, error) {
	var ng *gate
	install := func() {
		if next > 0 && ng == nil {
			ng = w.park(next)
		}
	}
	if err := g.wait(jobDone); err != nil {
		install()
		w.open(g)
		return ng, err
	}
	before := log.Count("ckpt.start")
	errc := make(chan error, 1)
	go func() { errc <- ckpt() }()
	deadline := time.Now().Add(5 * time.Second)
	for log.Count("ckpt.start") < before+w.np && time.Now().Before(deadline) {
		select {
		case err := <-errc:
			install()
			w.open(g)
			if err == nil {
				err = errors.New("checkpoint finished without its ranks")
			}
			return ng, fmt.Errorf("checkpoint at step %d: %w", g.step+1, err)
		case <-time.After(50 * time.Microsecond):
		}
	}
	install()
	w.open(g)
	return ng, <-errc
}

// --- correctness oracle -------------------------------------------------------

type refKey struct{ np, cells, steps int }

var (
	refMu    sync.Mutex
	refCache = map[refKey][]float64{}
)

// jacobi is the serial reference: the same 1-D periodic Jacobi smoother
// over the global ring of np*cells cells, single-threaded, with the
// stencil's operand order (left + centre + right) / 3 so results compare
// bit for bit.
func jacobi(np, cells, steps int) []float64 {
	n := np * cells
	cur := make([]float64, n)
	next := make([]float64, n)
	for i := range cur {
		cur[i] = float64(i)
	}
	for s := 0; s < steps; s++ {
		next[0] = (cur[n-1] + cur[0] + cur[1%n]) / 3
		for i := 1; i < n-1; i++ {
			next[i] = (cur[i-1] + cur[i] + cur[i+1]) / 3
		}
		if n > 1 {
			next[n-1] = (cur[n-2] + cur[n-1] + cur[0]) / 3
		}
		cur, next = next, cur
	}
	return cur
}

// reference returns the serial result, computed once per problem.
func reference(np, cells, steps int) []float64 {
	k := refKey{np, cells, steps}
	refMu.Lock()
	defer refMu.Unlock()
	r, ok := refCache[k]
	if !ok {
		r = jacobi(np, cells, steps)
		refCache[k] = r
	}
	return r
}

// checkFinal compares every rank's final state with the serial
// reference, bit for bit.
func checkFinal(finals []*apps.StencilApp, cells, steps int) error {
	ref := reference(len(finals), cells, steps)
	for r, a := range finals {
		if a == nil {
			return fmt.Errorf("rank %d: no application", r)
		}
		if a.State.Iter != steps {
			return fmt.Errorf("rank %d: finished at step %d, want %d", r, a.State.Iter, steps)
		}
		if len(a.State.Cell) != cells {
			return fmt.Errorf("rank %d: %d cells, want %d", r, len(a.State.Cell), cells)
		}
		for i, v := range a.State.Cell {
			if want := ref[r*cells+i]; math.Float64bits(v) != math.Float64bits(want) {
				return fmt.Errorf("rank %d cell %d: got %v, reference %v", r, i, v, want)
			}
		}
	}
	return nil
}

// verify runs the oracle on a finished job and counts the result as one
// attempted operation. corrupt flips a bit of rank 0's state first (the
// self-test's proof that the oracle catches a wrong result).
func (e *env) verify(what string, w *watch, jobErr error) {
	e.attempted++
	if jobErr != nil {
		e.wrong++
		e.fail("%s: job failed: %v", what, jobErr)
		return
	}
	finals := w.finals()
	if e.cfg.corrupt && finals[0] != nil && len(finals[0].State.Cell) > 0 {
		c := &finals[0].State.Cell[0]
		*c = math.Float64frombits(math.Float64bits(*c) ^ 1)
	}
	if err := checkFinal(finals, w.cells, w.steps); err != nil {
		e.wrong++
		e.fail("%s: wrong result: %v", what, err)
	}
}
