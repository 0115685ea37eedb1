package runtime

import (
	"testing"
	"time"

	"repro/internal/faultsim"
	"repro/internal/mca"
	"repro/internal/orte/plm"
	"repro/internal/trace"
)

// TestHeartbeatToleratesTransientSendFailures is the regression test for
// the orted self-kill bug: a transient RML send error in heartbeatLoop
// used to terminate the beacon immediately, so the HNP's detector
// declared a perfectly healthy node dead. With the miss budget in place,
// a flaky endpoint that fails a bounded burst of sends must leave every
// node alive and the job unharmed.
func TestHeartbeatToleratesTransientSendFailures(t *testing.T) {
	// Fail 6 heartbeat sends after the first 4 succeed. The budget is 10
	// consecutive misses per node, so even if one unlucky orted absorbs
	// the whole burst it stays under its budget.
	inj := faultsim.New(7, faultsim.Rule{Point: "rml.send", After: 4, Times: 6})
	params := mca.NewParams()
	params.Set("orted_heartbeat_interval", "4ms")
	params.Set("orted_heartbeat_miss", "10")
	c, err := New(Config{
		Nodes: []plm.NodeSpec{
			{Name: "n0", Slots: 2}, {Name: "n1", Slots: 2},
			{Name: "n2", Slots: 2}, {Name: "n3", Slots: 2},
		},
		Params: params,
		Ins:    trace.New(),
		Faults: inj,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()

	// Let the beacons run until the whole fault burst has been absorbed.
	deadline := time.Now().Add(5 * time.Second)
	for inj.Fired("rml.send") < 6 {
		if time.Now().After(deadline) {
			t.Fatalf("fault rule never exhausted: fired %d/6", inj.Fired("rml.send"))
		}
		time.Sleep(time.Millisecond)
	}
	// Give the orteds time to resume clean beacons past the detector's
	// cutoff window, then verify nobody was declared dead.
	time.Sleep(60 * time.Millisecond)
	for _, n := range c.Nodes() {
		if !c.Alive(n) {
			t.Fatalf("node %q declared dead despite transient-only send failures", n)
		}
	}
	// The miss/backoff path must actually have been exercised, or the
	// test proves nothing.
	misses := 0
	for _, ev := range c.Log().Events() {
		if ev.Kind == "heartbeat.miss" {
			misses++
		}
	}
	if misses == 0 {
		t.Fatalf("fault rule never fired: no heartbeat.miss events recorded")
	}

	// The cluster must still be fully serviceable: a job launched after
	// the burst runs to completion on all four nodes.
	factory, _ := newStencilFactory(16, 0)
	j, err := c.Launch(JobSpec{Name: "hb-flaky", NP: 4, AppFactory: factory})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if err := j.Wait(); err != nil {
		t.Fatalf("job failed after transient heartbeat faults: %v", err)
	}
}

// TestBatchedHeartbeatPump forces batch mode on a small cluster and
// checks the coalesced beacon path end to end: the detector sees every
// node alive, an injected node kill still fires through the pump and
// is declared, and a job launched in batch mode completes.
func TestBatchedHeartbeatPump(t *testing.T) {
	inj := faultsim.New(3, faultsim.Rule{Point: "node.kill:n2", After: 3, Times: 1})
	params := mca.NewParams()
	params.Set("orted_heartbeat_interval", "4ms")
	params.Set("orted_heartbeat_miss", "10")
	params.Set("orted_heartbeat_batch", "true")
	c, err := New(Config{
		Nodes: []plm.NodeSpec{
			{Name: "n0", Slots: 2}, {Name: "n1", Slots: 2},
			{Name: "n2", Slots: 2}, {Name: "n3", Slots: 2},
		},
		Params: params,
		Ins:    trace.New(),
		Faults: inj,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	if !c.hbBatch {
		t.Fatalf("orted_heartbeat_batch=true did not enable the pump")
	}

	// The injected kill fires on the pump's third pass over n2.
	waitForEvent(t, c.Log(), "node.kill", time.Second)
	deadline := time.Now().Add(time.Second)
	for c.Alive("n2") {
		if time.Now().After(deadline) {
			t.Fatalf("pump-injected kill never took n2 down")
		}
		time.Sleep(time.Millisecond)
	}

	// Survivors keep beating through the shared message: nobody else may
	// be declared dead, and the health view must show fresh beats.
	time.Sleep(60 * time.Millisecond)
	for _, n := range []string{"n0", "n1", "n3"} {
		if !c.Alive(n) {
			t.Fatalf("node %q declared dead under batched heartbeats", n)
		}
	}
	h := c.Health()
	for _, nh := range h.Nodes {
		if nh.Node != "n2" && (nh.SinceBeat < 0 || nh.SinceBeat > 500*time.Millisecond) {
			t.Fatalf("node %q has stale batched beat: %v", nh.Node, nh.SinceBeat)
		}
	}

	// The shrunken cluster is still serviceable in batch mode.
	factory, _ := newStencilFactory(16, 0)
	j, err := c.Launch(JobSpec{Name: "hb-batch", NP: 3, AppFactory: factory})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if err := j.Wait(); err != nil {
		t.Fatalf("job failed under batched heartbeats: %v", err)
	}
}

// TestDetectWindowFloor: a configured detection window shorter than the
// scheduler can honor on a busy host is raised to minDetectWindow;
// longer ones are kept.
func TestDetectWindowFloor(t *testing.T) {
	if got := detectWindow(2*time.Millisecond, 4); got != minDetectWindow {
		t.Errorf("2ms x 4: window = %v, want %v", got, minDetectWindow)
	}
	if got := detectWindow(15*time.Millisecond, 20); got != 300*time.Millisecond {
		t.Errorf("15ms x 20: window = %v, want 300ms", got)
	}
}
