package ompi

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mca"
	"repro/internal/ompi/btl"
	"repro/internal/ompi/coll"
	"repro/internal/opal/crs"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// frontierWorld is testWorld that also returns the shared frontier and
// the fabric, so a test can arm the frontier directly or tear the fabric
// down the way the runtime does when a rank dies.
func frontierWorld(t *testing.T, n int, params *mca.Params) ([]*Proc, []*vfs.Mem, *Frontier, btl.JobFabric) {
	t.Helper()
	fabric := btl.AdaptFabric(btl.NewFabric())
	f := NewFrontier(n)
	procs := make([]*Proc, n)
	disks := make([]*vfs.Mem, n)
	for r := 0; r < n; r++ {
		disks[r] = vfs.NewMem()
		p, err := NewProc(Config{
			JobID: 1, Rank: r, Size: n, Node: fmt.Sprintf("n%d", r), PID: 100 + r,
			Fabric: fabric, Frontier: f, Params: params, Ins: trace.New(),
		})
		if err != nil {
			t.Fatalf("NewProc(%d): %v", r, err)
		}
		procs[r] = p
	}
	return procs, disks, f, fabric
}

// pipeApp streams one eager message per step from rank 0 to every other
// rank, so rank 0 runs ahead of its consumers freely and messages cross
// every boundary. Each rank may park inside the step entered at
// Iter == hold[rank] until release closes, and records the checkpoint
// count it sees at every step entry.
type pipeApp struct {
	steps   int
	coupled bool // end every step with an allreduce (lockstep within a step)
	hold    int
	reached chan<- int
	release <-chan struct{}

	seen  []int // p.Checkpoints() at the entry of step i
	state struct {
		Iter int
		Sum  int64
	}
}

func (a *pipeApp) Setup(p *Proc) error { return p.RegisterState("pipe", &a.state) }

func (a *pipeApp) Step(p *Proc) (bool, error) {
	a.seen = append(a.seen, p.Checkpoints())
	if a.release != nil && a.state.Iter == a.hold {
		a.reached <- p.Rank()
		<-a.release
	}
	if p.Rank() == 0 {
		for dst := 1; dst < p.Size(); dst++ {
			if err := p.Send(dst, 1, coll.Int64sToBytes([]int64{int64(a.state.Iter)})); err != nil {
				return false, err
			}
		}
	} else {
		data, _, err := p.Recv(0, 1)
		if err != nil {
			return false, err
		}
		v, err := coll.BytesToInt64s(data)
		if err != nil {
			return false, err
		}
		a.state.Sum += v[0]
	}
	if a.coupled {
		if _, err := p.Allreduce(coll.Int64sToBytes([]int64{1}), coll.SumInt64); err != nil {
			return false, err
		}
	}
	a.state.Iter++
	return a.state.Iter >= a.steps, nil
}

// pipeWorld builds n pipeApps; rank r parks at step holds[r] when holds
// is non-nil.
func pipeWorld(n, steps int, holds []int) ([]*pipeApp, []App, chan int, chan struct{}) {
	reached := make(chan int, n)
	release := make(chan struct{})
	pas := make([]*pipeApp, n)
	apps := make([]App, n)
	for r := range pas {
		pas[r] = &pipeApp{steps: steps}
		if holds != nil {
			pas[r].hold, pas[r].reached, pas[r].release = holds[r], reached, release
		}
		apps[r] = pas[r]
	}
	return pas, apps, reached, release
}

// checkUniform asserts every rank saw the same checkpoint count at every
// step entry and that the first checkpoint landed at boundary want.
func checkUniform(t *testing.T, pas []*pipeApp, want int) {
	t.Helper()
	for r, a := range pas {
		if len(a.seen) != len(pas[0].seen) {
			t.Fatalf("rank %d ran %d steps, rank 0 ran %d", r, len(a.seen), len(pas[0].seen))
		}
		for i, c := range a.seen {
			if c != pas[0].seen[i] {
				t.Fatalf("step %d: rank %d saw %d checkpoints, rank 0 saw %d", i, r, c, pas[0].seen[i])
			}
		}
	}
	for i, c := range pas[0].seen {
		if c > 0 {
			if i != want {
				t.Fatalf("first checkpoint served at boundary %d, want %d", i, want)
			}
			return
		}
	}
	t.Fatalf("no checkpoint served")
}

func startWorld(t *testing.T, procs []*Proc, apps []App) <-chan []error {
	t.Helper()
	done := make(chan []error, 1)
	go func() { done <- runWorld(t, procs, apps, nil) }()
	return done
}

func requireClean(t *testing.T, errs []error) {
	t.Helper()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestFrontierDriftingRanks delivers a directive while rank 0 is eight
// steps ahead of its consumers: the target is one past the furthest
// rank, and every rank serves the interval at exactly that boundary.
func TestFrontierDriftingRanks(t *testing.T) {
	const n, steps = 4, 20
	procs, disks, f, _ := frontierWorld(t, n, nil)
	holds := []int{10, 2, 2, 2}
	pas, apps, reached, release := pipeWorld(n, steps, holds)
	done := startWorld(t, procs, apps)
	for i := 0; i < n; i++ {
		<-reached
	}
	results := make(chan ParticipationResult, n)
	for r := range procs {
		procs[r].Deliver(&Directive{Interval: 0, FS: disks[r], Dir: "snap", Result: results})
	}
	if !f.pending.Load() {
		t.Fatal("delivery did not arm the frontier")
	}
	close(release)
	requireClean(t, <-done)
	for i := 0; i < n; i++ {
		if res := <-results; res.Err != nil {
			t.Fatalf("rank %d participation: %v", res.Rank, res.Err)
		}
	}
	// Rank 0 had published boundary 10 (it parked inside step 10).
	checkUniform(t, pas, 11)
	if f.pending.Load() {
		t.Fatal("frontier still pending after every rank served the interval")
	}
	for r := 1; r < n; r++ {
		if want := int64(steps * (steps - 1) / 2); pas[r].state.Sum != want {
			t.Errorf("rank %d sum = %d, want %d", r, pas[r].state.Sum, want)
		}
	}
}

// TestFrontierDirectiveBeforeRun: ranks not yet stepping publish -1, so
// a directive delivered before Run lands at boundary 0.
func TestFrontierDirectiveBeforeRun(t *testing.T) {
	const n = 3
	procs, disks, _, _ := frontierWorld(t, n, nil)
	pas, apps, _, _ := pipeWorld(n, 5, nil)
	results := make(chan ParticipationResult, n)
	for r := range procs {
		procs[r].Deliver(&Directive{Interval: 4, FS: disks[r], Dir: "snap", Result: results})
	}
	requireClean(t, runWorld(t, procs, apps, nil))
	for i := 0; i < n; i++ {
		if res := <-results; res.Err != nil {
			t.Fatalf("rank %d participation: %v", res.Rank, res.Err)
		}
	}
	checkUniform(t, pas, 0)
}

// TestFrontierBackToBackIntervals queues a second interval while the
// first is armed: both are served, in FIFO order, at uniform boundaries.
// The steps are coupled so no rank can run to the end of the job before
// the second interval is armed (a target past the last boundary is
// refused at finalize, which is not what this test is about).
func TestFrontierBackToBackIntervals(t *testing.T) {
	const n, steps = 3, 40
	procs, disks, f, _ := frontierWorld(t, n, nil)
	pas, apps, reached, release := pipeWorld(n, steps, []int{3, 3, 3})
	for _, a := range pas {
		a.coupled = true
	}
	done := startWorld(t, procs, apps)
	for i := 0; i < n; i++ {
		<-reached
	}
	results := make(chan ParticipationResult, 2*n)
	for _, iv := range []int{1, 2} {
		for r := range procs {
			procs[r].Deliver(&Directive{Interval: iv, FS: disks[r], Dir: fmt.Sprintf("snap%d", iv), Result: results})
		}
	}
	close(release)
	requireClean(t, <-done)
	for i := 0; i < 2*n; i++ {
		if res := <-results; res.Err != nil {
			t.Fatalf("rank %d participation: %v", res.Rank, res.Err)
		}
	}
	checkUniform(t, pas, 4)
	if got := pas[0].seen[len(pas[0].seen)-1]; got != 2 {
		t.Fatalf("rank 0 finished with %d checkpoints, want 2", got)
	}
	if f.pending.Load() {
		t.Fatal("frontier still pending after both intervals")
	}
	for r := range procs {
		for _, iv := range []int{1, 2} {
			if !vfs.Exists(disks[r], fmt.Sprintf("snap%d/%s", iv, crs.ImageFile)) {
				t.Errorf("rank %d: interval %d left no snapshot", r, iv)
			}
		}
	}
}

// TestFrontierInlineCheckpointDisarms: a directive consumed inline by
// Proc.Checkpoint counts as served, so the frontier its delivery armed
// is not left waiting at a boundary nobody stops at, and a later
// asynchronous interval is still served uniformly.
func TestFrontierInlineCheckpointDisarms(t *testing.T) {
	const n = 3
	procs, disks, f, _ := frontierWorld(t, n, nil)
	results := make(chan ParticipationResult, 2*n)
	for r := range procs {
		procs[r].cfg.SyncCheckpoint = func() error {
			for i := range procs {
				procs[i].Deliver(&Directive{Interval: 0, FS: disks[i], Dir: "sync", Result: results})
			}
			return nil
		}
	}
	type st struct{ Iter int }
	seen := make([][]int, n)
	apps := make([]App, n)
	for r := range procs {
		r, s := r, &st{}
		apps[r] = FuncApp{
			SetupFn: func(p *Proc) error { return p.RegisterState("s", s) },
			StepFn: func(p *Proc) (bool, error) {
				seen[r] = append(seen[r], p.Checkpoints())
				if s.Iter == 2 {
					if err := p.Checkpoint(); err != nil {
						return false, err
					}
				}
				if s.Iter == 6 && p.Rank() == 0 {
					for i := range procs {
						procs[i].Deliver(&Directive{Interval: 1, FS: disks[i], Dir: "async", Result: results})
					}
				}
				s.Iter++
				// Coupled steps keep the ranks in lockstep enough for
				// the async interval to land before the end.
				if _, err := p.Allreduce(coll.Int64sToBytes([]int64{1}), coll.SumInt64); err != nil {
					return false, err
				}
				return s.Iter >= 12, nil
			},
		}
	}
	requireClean(t, runWorld(t, procs, apps, nil))
	for i := 0; i < 2*n; i++ {
		if res := <-results; res.Err != nil {
			t.Fatalf("rank %d participation: %v", res.Rank, res.Err)
		}
	}
	for r := range seen {
		for i, c := range seen[r] {
			if c != seen[0][i] {
				t.Fatalf("step %d: rank %d saw %d checkpoints, rank 0 saw %d", i, r, c, seen[0][i])
			}
		}
		if got := procs[r].Checkpoints(); got != 2 {
			t.Fatalf("rank %d: %d checkpoints, want 2", r, got)
		}
	}
	if f.pending.Load() {
		t.Fatal("frontier still armed after the inline and the async interval")
	}
}

// TestFrontierFenceDisarms parks every rank at an armed target whose
// directives never arrive (their coordinator died before delivering);
// fencing the interval wakes them and the job runs to completion.
func TestFrontierFenceDisarms(t *testing.T) {
	const n, steps = 3, 12
	procs, _, f, _ := frontierWorld(t, n, nil)
	pas, apps, reached, release := pipeWorld(n, steps, []int{4, 4, 4})
	done := startWorld(t, procs, apps)
	for i := 0; i < n; i++ {
		<-reached
	}
	f.arm(9) // target: boundary 5
	close(release)
	waitParked(t, f, n, 5)
	for _, p := range procs {
		p.FenceDirectives(9)
	}
	requireClean(t, <-done)
	if f.pending.Load() {
		t.Fatal("fenced interval left the frontier pending")
	}
	for r, a := range pas {
		if a.seen[len(a.seen)-1] != 0 {
			t.Fatalf("rank %d served a fenced interval", r)
		}
	}
	// A late directive of the fenced interval is refused, not queued.
	res := make(chan ParticipationResult, 1)
	procs[0].Deliver(&Directive{Interval: 9, Result: res})
	if r := <-res; r.Err == nil {
		t.Fatal("fenced directive was accepted")
	}
}

// waitParked waits until every rank has published boundary k.
func waitParked(t *testing.T, f *Frontier, n, k int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		all := true
		for r := 0; r < n; r++ {
			if f.current().k[r].Load() != int64(k)+1 {
				all = false
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ranks never reached boundary %d", k)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFrontierPeerDeathFailsParkedRanksFast: ranks parked at T waiting
// for a directive fail as soon as the fabric closes (a peer died and the
// runtime tore the job's transport down), not after the directive
// timeout.
func TestFrontierPeerDeathFailsParkedRanksFast(t *testing.T) {
	const n = 3
	params := mca.NewParams()
	params.Set("ompi_directive_timeout", "30s")
	procs, _, f, fabric := frontierWorld(t, n, params)
	_, apps, reached, release := pipeWorld(n, 50, []int{4, 4, 4})
	done := startWorld(t, procs, apps)
	for i := 0; i < n; i++ {
		<-reached
	}
	f.arm(3)
	close(release)
	waitParked(t, f, n, 5)
	start := time.Now()
	fabric.Close()
	select {
	case errs := <-done:
		if el := time.Since(start); el > 5*time.Second {
			t.Fatalf("parked ranks took %v to fail", el)
		}
		for r, err := range errs {
			if !IsCommFailure(err) {
				t.Fatalf("rank %d: err = %v, want a communication failure", r, err)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked ranks did not fail after the fabric closed")
	}
}

// TestFrontierUnit exercises the agreement bookkeeping directly.
func TestFrontierUnit(t *testing.T) {
	f := NewFrontier(2)
	b := f.current()
	if f.publish(b, 0, 3) || f.publish(b, 1, 1) {
		t.Fatal("idle frontier reports pending")
	}
	f.arm(5)
	f.arm(5) // repeat delivery of the same interval
	f.arm(6)
	if !f.pending.Load() || len(f.queue) != 2 || f.queue[0].target != 4 {
		t.Fatalf("armed queue = %+v", f.queue)
	}
	if _, due, err := f.due(b, 1, 2); due || err != nil {
		t.Fatalf("rank behind the target is due (err %v)", err)
	}
	if iv, due, _ := f.due(b, 0, 4); !due || iv != 5 {
		t.Fatalf("rank at the target: due=%v iv=%d", due, iv)
	}
	if _, _, err := f.due(b, 0, 5); err == nil {
		t.Fatal("passing the target unserved is not an error")
	}
	// A superseded generation's board is never due.
	if _, due, err := f.due(&board{k: make([]atomic.Int64, 2)}, 0, 4); due || err != nil {
		t.Fatal("stale generation is due")
	}
	f.served(b, 0, 5)
	if _, due, _ := f.due(b, 0, 5); due {
		t.Fatal("a rank that served the interval is stopped again")
	}
	f.publish(b, 0, 5)
	f.served(b, 1, 5)
	// Interval 6 re-armed from the published boundaries: one past rank 0.
	if len(f.queue) != 1 || f.queue[0].interval != 6 || f.queue[0].target != 6 {
		t.Fatalf("re-armed queue = %+v", f.queue[0])
	}
	ver := f.ver.Load()
	f.Fence(6)
	if f.pending.Load() || f.ver.Load() == ver {
		t.Fatal("fence did not disarm")
	}
	f.arm(7)
	f.Reset()
	if f.pending.Load() || len(f.queue) != 0 || f.current() == b {
		t.Fatal("reset left state behind")
	}
	// After a reset every old publication reads as "not stepping".
	f.arm(8)
	if f.queue[0].target != 0 {
		t.Fatalf("target after reset = %d, want 0", f.queue[0].target)
	}
}

// TestFrontierStalePublishAfterReset: a rank of a superseded incarnation
// (a killed rank finishing a long step after in-job recovery) publishes
// and serves after the respawned rank has published under the new
// generation. Neither may move the next target or count as the new
// rank's service.
func TestFrontierStalePublishAfterReset(t *testing.T) {
	f := NewFrontier(2)
	old := f.current()
	f.publish(old, 0, 7)
	f.publish(old, 1, 7)
	f.Reset()
	cur := f.current()
	// The rebuilt job: rank 1 is ahead of rank 0.
	f.publish(cur, 0, 2)
	f.publish(cur, 1, 4)
	// The superseded rank 1 finishes its step and publishes late.
	f.publish(old, 1, 8)
	if cur.k[1].Load() != 5 {
		t.Fatalf("stale publish overwrote the new rank's slot: %d", cur.k[1].Load()-1)
	}
	f.arm(3)
	if got := f.queue[0].target; got != 5 {
		t.Fatalf("target = %d, want 5 (one past the new rank 1)", got)
	}
	// The new rank 1 reaches the target and is due, not failed.
	if iv, due, err := f.due(cur, 1, 5); !due || err != nil || iv != 3 {
		t.Fatalf("new rank 1 at the target: iv=%d due=%v err=%v", iv, due, err)
	}
	// The stale rank is never due and cannot serve on the new rank's
	// behalf.
	if _, due, err := f.due(old, 1, 8); due || err != nil {
		t.Fatalf("stale rank due=%v err=%v", due, err)
	}
	f.served(old, 1, 3)
	if f.queue[0].served[1] {
		t.Fatal("stale rank's service counted for the new rank")
	}
}
