package runtime

import (
	"errors"
	"testing"

	"repro/internal/ompi"
	"repro/internal/orte/snapc"
	"repro/internal/vfs"
)

// heldApp parks a stencil rank inside the step entered at Iter == hold
// until release closes.
type heldApp struct {
	*stencilApp
	hold    int
	reached chan<- int
	release <-chan struct{}
}

func (a *heldApp) Step(p *ompi.Proc) (bool, error) {
	if a.state.Iter == a.hold {
		a.reached <- p.Rank()
		<-a.release
	}
	return a.stencilApp.Step(p)
}

// TestFenceStaleDirectivesDisarmsFrontier: a directive from a
// coordinator that died after reaching one rank arms the job's frontier;
// fencing its interval (what Reattach does after an HNP crash) refuses
// the directive and disarms the frontier, so no rank waits at a boundary
// nobody coordinates, and the next checkpoint is served normally.
func TestFenceStaleDirectivesDisarmsFrontier(t *testing.T) {
	const np = 4
	c := fourNodeCluster(t, nil)
	reached := make(chan int, np)
	release := make(chan struct{})
	factory := func(rank int) ompi.App {
		return &heldApp{stencilApp: &stencilApp{}, hold: 3, reached: reached, release: release}
	}
	job, err := c.Launch(JobSpec{Name: "stencil", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < np; i++ {
		<-reached
	}
	job.mu.Lock()
	iv := job.nextInterval
	job.nextInterval++
	job.mu.Unlock()
	res := make(chan ompi.ParticipationResult, 1)
	job.Deliver(0, &ompi.Directive{Interval: iv, FS: vfs.NewMem(), Dir: "orphan", Result: res})
	if !job.frontier.Pending() {
		t.Fatal("delivery did not arm the frontier")
	}
	job.fenceStaleDirectives()
	if job.frontier.Pending() {
		t.Fatal("fenced interval left the frontier armed")
	}
	if r := <-res; !errors.Is(r.Err, ompi.ErrFinalized) {
		t.Fatalf("fenced directive answered with %v, want a refusal", r.Err)
	}
	close(release)
	out, err := c.CheckpointJob(job.JobID(), snapc.Options{Terminate: true})
	if err != nil {
		t.Fatalf("checkpoint after the fence: %v", err)
	}
	if out.Interval != iv+1 {
		t.Errorf("interval = %d, want %d", out.Interval, iv+1)
	}
	if err := job.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if job.frontier.Pending() {
		t.Fatal("frontier still armed after the job ended")
	}
}
