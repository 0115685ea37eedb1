// Benchmarks regenerating the paper's evaluation (§7) and the ablation
// experiments indexed in DESIGN.md:
//
//	R1/R2  BenchmarkNetpipeLatency, BenchmarkNetpipeBandwidth
//	A1     BenchmarkCheckpointScale
//	A2     BenchmarkBookmarkDrain
//	A3     BenchmarkFilemGather
//	A4     BenchmarkRestartTopology
//	A5     BenchmarkEagerRendezvousCrossover
//	A6     BenchmarkSnapcTopology
//	A7     BenchmarkFaultRetryAblation
//	A8     BenchmarkIncrementalGather
//	A9     BenchmarkReplicationOverhead
//	A10    BenchmarkAsyncDrainPipeline
//	A11    BenchmarkRecoveryVsRestart
//	A12    BenchmarkLedgerOverhead, BenchmarkHNPReattachMTTR
//	A14    BenchmarkCadence
//	A15    BenchmarkStepTax
//
// Run with: go test -bench=. -benchmem
//
// A1/A6/A7 pin filem_dedup=0: their ring workload has static rank state,
// so the content-addressed gather path would dedup nearly every byte
// after the first interval and the full-gather costs under study would
// vanish. A8 measures that dedup path explicitly.
package repro

import (
	"fmt"
	"path"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/core/snapshot"
	"repro/internal/mca"
	"repro/internal/netsim"
	"repro/internal/ompi"
	"repro/internal/ompi/btl"
	"repro/internal/ompi/crcp"
	"repro/internal/ompi/pml"
	"repro/internal/opal/inc"
	"repro/internal/orte/cadence"
	"repro/internal/orte/filem"
	"repro/internal/orte/snapc"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// reportPhases emits a committed checkpoint's per-phase wall times as
// custom benchmark metrics, so the JSON bench artifacts carry the same
// breakdown `ompi-snapshot stats` shows: where each checkpoint's time
// went (quiesce, CRS capture, FILEM gather, metadata commit).
func reportPhases(b *testing.B, p *snapshot.PhaseBreakdown) {
	b.Helper()
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / float64(b.N) }
	b.ReportMetric(ms(p.QuiesceWallNS), "quiesce-ms/ckpt")
	b.ReportMetric(ms(p.CaptureWallNS), "capture-ms/ckpt")
	b.ReportMetric(ms(p.GatherNS), "gather-ms/ckpt")
	b.ReportMetric(ms(p.CommitNS), "commit-ms/ckpt")
}

// --- R1 / R2: NetPIPE latency and bandwidth --------------------------------

// pingpongWorld builds the two-rank fixture for one CRCP mode.
func pingpongWorld(b *testing.B, mode string) [2]*pml.Engine {
	b.Helper()
	fabric := btl.NewFabric()
	var engines [2]*pml.Engine
	for r := 0; r < 2; r++ {
		ep, err := fabric.Attach(r)
		if err != nil {
			b.Fatal(err)
		}
		engines[r] = pml.New(pml.Config{Rank: r, Size: 2, Endpoint: ep})
	}
	switch mode {
	case "direct":
		// no C/R infrastructure
	case "crcp-none":
		comp := &crcp.NoneComponent{}
		for r := 0; r < 2; r++ {
			engines[r].SetHooks(comp.Wrap(engines[r], nil, nil))
		}
	case "crcp-bkmrk":
		comp := &crcp.BkmrkComponent{}
		for r := 0; r < 2; r++ {
			engines[r].SetHooks(comp.Wrap(engines[r], nil, nil))
		}
	default:
		b.Fatalf("unknown mode %q", mode)
	}
	return engines
}

// benchPingpong measures b.N round trips of one size and reports both
// one-way latency (ns/op is round trip) and bandwidth.
func benchPingpong(b *testing.B, mode string, size int) {
	engines := pingpongWorld(b, mode)
	payload := make([]byte, size)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e := engines[1]
		for {
			data, _, err := e.Recv(0, 3)
			if err != nil {
				return
			}
			// Check for shutdown before echoing: a rendezvous-sized echo
			// after the timer stops would block forever awaiting a CTS
			// the benchmark side never issues.
			select {
			case <-stop:
				return
			default:
			}
			if err := e.Send(0, 3, data); err != nil {
				return
			}
		}
	}()
	e := engines[0]
	// Warmup outside the timer.
	for i := 0; i < 4; i++ {
		if err := e.Send(1, 3, payload); err != nil {
			b.Fatal(err)
		}
		if _, _, err := e.Recv(1, 3); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(2 * size)) // bytes moved per round trip
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Send(1, 3, payload); err != nil {
			b.Fatal(err)
		}
		if _, _, err := e.Recv(1, 3); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	// Unblock the echo goroutine with one final message; it observes
	// stop after receiving and exits without echoing.
	_ = e.Send(1, 3, payload)
	wg.Wait()
}

// BenchmarkNetpipeLatency is experiment R1: small and medium messages
// across the three configurations. The paper's claim is ~3% overhead of
// crcp-none over direct at small sizes, vanishing with size.
func BenchmarkNetpipeLatency(b *testing.B) {
	for _, mode := range []string{"direct", "crcp-none", "crcp-bkmrk"} {
		for _, size := range []int{1, 64, 1024, 4096, 65536} {
			b.Run(fmt.Sprintf("%s/bytes=%d", mode, size), func(b *testing.B) {
				benchPingpong(b, mode, size)
			})
		}
	}
}

// BenchmarkNetpipeBandwidth is experiment R2: large messages, where the
// paper reports 0% bandwidth overhead.
func BenchmarkNetpipeBandwidth(b *testing.B) {
	for _, mode := range []string{"direct", "crcp-none", "crcp-bkmrk"} {
		for _, size := range []int{1 << 18, 1 << 20, 1 << 22} {
			b.Run(fmt.Sprintf("%s/bytes=%d", mode, size), func(b *testing.B) {
				benchPingpong(b, mode, size)
			})
		}
	}
}

// --- A15: idle C/R step tax --------------------------------------------------

// BenchmarkStepTax is experiment A15: what an application pays per step
// for C/R when no checkpoint is requested. Each iteration runs the same
// stencil (64 cells/rank, 2000 steps) twice on fresh processes: once
// through Proc.Run, whose step boundaries consult the job's frontier,
// and once as a bare loop calling Step directly. The two runs alternate
// within an iteration, so host drift hits both. Reported per step:
// run-ns/step, bare-ns/step and tax-pct = (run - bare) / bare.
func BenchmarkStepTax(b *testing.B) {
	const steps, cells = 2000, 64
	for _, np := range []int{2, 8, 16} {
		b.Run(fmt.Sprintf("np=%d", np), func(b *testing.B) {
			var run, bare time.Duration
			for i := 0; i < b.N; i++ {
				bare += stepTaxRun(b, np, steps, cells, false)
				run += stepTaxRun(b, np, steps, cells, true)
			}
			perStep := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(b.N*steps) }
			b.ReportMetric(perStep(run), "run-ns/step")
			b.ReportMetric(perStep(bare), "bare-ns/step")
			b.ReportMetric((perStep(run)-perStep(bare))/perStep(bare)*100, "tax-pct")
		})
	}
}

// stepTaxRun runs one np-rank stencil job to completion and returns its
// wall time, either through Proc.Run or as a bare Setup+Step loop.
func stepTaxRun(b *testing.B, np, steps, cells int, viaRun bool) time.Duration {
	b.Helper()
	fabric := btl.AdaptFabric(btl.NewFabric())
	frontier := ompi.NewFrontier(np)
	procs := make([]*ompi.Proc, np)
	for r := range procs {
		p, err := ompi.NewProc(ompi.Config{JobID: 1, Rank: r, Size: np, Fabric: fabric, Frontier: frontier})
		if err != nil {
			b.Fatal(err)
		}
		procs[r] = p
	}
	errs := make([]error, np)
	var wg sync.WaitGroup
	start := time.Now()
	for r, p := range procs {
		wg.Add(1)
		go func(r int, p *ompi.Proc) {
			defer wg.Done()
			app := &apps.StencilApp{Steps: steps, Cells: cells}
			if viaRun {
				errs[r] = p.Run(app, nil)
				return
			}
			if errs[r] = app.Setup(p); errs[r] != nil {
				return
			}
			for done := false; !done && errs[r] == nil; {
				done, errs[r] = app.Step(p)
			}
		}(r, p)
	}
	wg.Wait()
	el := time.Since(start)
	for r, err := range errs {
		if err != nil {
			b.Fatalf("rank %d: %v", r, err)
		}
	}
	return el
}

// --- A1: checkpoint latency vs number of processes ---------------------------

// BenchmarkCheckpointScale measures one full global checkpoint
// (coordination + CRS capture + FILEM gather + metadata) against job
// size. The centralized coordinator and the shared stable-storage
// ingress dominate as np grows.
func BenchmarkCheckpointScale(b *testing.B) {
	for _, np := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("np=%d", np), func(b *testing.B) {
			params := mca.NewParams()
			params.Set("filem_dedup", "0") // measure full gathers (see header)
			sys, err := core.NewSystem(core.Options{Nodes: 4, SlotsPerNode: (np + 3) / 4, Params: params, Ins: trace.New()})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			factory, err := apps.Lookup("ring", []string{"-iters", "0"})
			if err != nil {
				b.Fatal(err)
			}
			job, err := sys.Launch(core.JobSpec{Name: "ring", Args: []string{"-iters", "0"}, NP: np, AppFactory: factory})
			if err != nil {
				b.Fatal(err)
			}
			clock := sys.Cluster().Clock()
			clock.Reset()
			var phases snapshot.PhaseBreakdown
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sys.Checkpoint(job.JobID(), false)
				if err != nil {
					b.Fatal(err)
				}
				phases.Accumulate(res.Meta.Phases)
			}
			b.StopTimer()
			b.ReportMetric(clock.Elapsed().Seconds()*1e3/float64(b.N), "sim-ms/ckpt")
			reportPhases(b, &phases)
			if _, err := sys.Checkpoint(job.JobID(), true); err != nil {
				b.Fatal(err)
			}
			if err := job.Wait(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// --- A2: bookmark drain cost vs in-flight traffic -----------------------------

// BenchmarkBookmarkDrain measures the quiesce (bookmark exchange plus
// channel drain) with k messages in flight at request time. The drain
// must consume each one, so cost grows linearly in k.
func BenchmarkBookmarkDrain(b *testing.B) {
	for _, inflight := range []int{0, 16, 64, 256} {
		b.Run(fmt.Sprintf("inflight=%d", inflight), func(b *testing.B) {
			fabric := btl.NewFabric()
			var engines [2]*pml.Engine
			var protos [2]crcp.Protocol
			comp := &crcp.BkmrkComponent{}
			for r := 0; r < 2; r++ {
				ep, err := fabric.Attach(r)
				if err != nil {
					b.Fatal(err)
				}
				engines[r] = pml.New(pml.Config{Rank: r, Size: 2, Endpoint: ep})
				protos[r] = comp.Wrap(engines[r], nil, nil)
				engines[r].SetHooks(protos[r])
			}
			payload := make([]byte, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for k := 0; k < inflight; k++ {
					if err := engines[0].Send(1, 1, payload); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				var wg sync.WaitGroup
				for r := 0; r < 2; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						if err := protos[r].FTEvent(inc.StateCheckpoint); err != nil {
							b.Error(err)
						}
					}(r)
				}
				wg.Wait()
				b.StopTimer()
				for r := 0; r < 2; r++ {
					if err := protos[r].FTEvent(inc.StateContinue); err != nil {
						b.Fatal(err)
					}
				}
				// Clean the unexpected queue for the next round.
				for k := 0; k < inflight; k++ {
					if _, _, err := engines[1].Recv(0, 1); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
		})
	}
}

// --- A3: FILEM gather, grouped vs sequential ----------------------------------

// BenchmarkFilemGather compares the rsh (sequential) and raw (grouped)
// FILEM components moving 8 local snapshots to stable storage. The
// reported sim-ms metric is the modeled network time — the quantity the
// paper's grouped-request design targets; wall time covers the real
// byte copies.
func BenchmarkFilemGather(b *testing.B) {
	const nodes = 8
	for _, comp := range []filem.Component{&filem.RSH{}, &filem.Raw{}} {
		for _, size := range []int{64 << 10, 1 << 20, 16 << 20} {
			b.Run(fmt.Sprintf("%s/size=%d", comp.Name(), size), func(b *testing.B) {
				stores := map[string]*vfs.Mem{filem.StableNode: vfs.NewMem()}
				topo := netsim.NewTopology(netsim.DefaultIngress)
				var reqs []filem.Request
				payload := make([]byte, size)
				for i := 0; i < nodes; i++ {
					name := fmt.Sprintf("n%d", i)
					stores[name] = vfs.NewMem()
					topo.AddNode(name, netsim.DefaultUplink)
					if err := stores[name].WriteFile("snap/image.bin", payload); err != nil {
						b.Fatal(err)
					}
					reqs = append(reqs, filem.Request{
						SrcNode: name, SrcPath: "snap",
						DstNode: filem.StableNode, DstPath: fmt.Sprintf("g/%d/n%d", 0, i),
					})
				}
				clock := &netsim.Clock{}
				env := &filem.Env{
					Resolve: func(node string) (vfs.FS, error) {
						fs, ok := stores[node]
						if !ok {
							return nil, fmt.Errorf("unknown node")
						}
						return fs, nil
					},
					Topo: topo, Clock: clock,
				}
				b.SetBytes(int64(nodes * size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := comp.Move(env, reqs); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(clock.Elapsed().Seconds()*1e3/float64(b.N), "sim-ms/gather")
			})
		}
	}
}

// --- A4: restart cost vs topology change --------------------------------------

// BenchmarkRestartTopology measures a full restart (FILEM preload + CRS
// restore + PML reconnect + resume) onto the original placement versus a
// different cluster shape. The paper's design goal: restart cost is
// independent of the mapping.
func BenchmarkRestartTopology(b *testing.B) {
	// Build one snapshot to restart from, on shared OS-backed storage.
	stableDir := b.TempDir()
	prep, err := core.NewSystem(core.Options{Nodes: 4, SlotsPerNode: 2, StableDir: stableDir})
	if err != nil {
		b.Fatal(err)
	}
	factory, err := apps.Lookup("ring", []string{"-iters", "0"})
	if err != nil {
		b.Fatal(err)
	}
	job, err := prep.Launch(core.JobSpec{Name: "ring", Args: []string{"-iters", "0"}, NP: 8, AppFactory: factory})
	if err != nil {
		b.Fatal(err)
	}
	ckpt, err := prep.Checkpoint(job.JobID(), true)
	if err != nil {
		b.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		b.Fatal(err)
	}
	prep.Close()

	cases := []struct {
		name  string
		nodes int
		slots int
		plm   string
	}{
		{"same-topology", 4, 2, "rr"},
		{"fewer-fatter-nodes", 2, 4, "slurmsim"},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				params := mca.NewParams()
				params.Set("plm", tc.plm)
				sys, err := core.NewSystem(core.Options{
					Nodes: tc.nodes, SlotsPerNode: tc.slots,
					StableDir: stableDir, Params: params,
				})
				if err != nil {
					b.Fatal(err)
				}
				ref, err := sys.OpenGlobalSnapshot(ckpt.Dir)
				if err != nil {
					b.Fatal(err)
				}
				job, err := sys.Restart(ref, ckpt.Interval, func(rank int) ompi.App {
					return &apps.RingApp{Iters: 0}
				})
				if err != nil {
					b.Fatal(err)
				}
				// Resume is part of the cost: run a couple of steps then stop.
				if _, err := sys.Cluster().CheckpointJob(job.JobID(), snapc.Options{Terminate: true}); err != nil {
					b.Fatal(err)
				}
				if err := job.Wait(); err != nil {
					b.Fatal(err)
				}
				sys.Close()
			}
		})
	}
}

// --- A5: eager/rendezvous crossover --------------------------------------------

// BenchmarkEagerRendezvousCrossover sweeps message sizes across the
// eager limit. Below the limit a message costs one fragment; above it,
// three (RTS/CTS/DATA) — the protocol switch shows as a latency step at
// the threshold, the "where crossovers fall" shape of the NetPIPE curve.
func BenchmarkEagerRendezvousCrossover(b *testing.B) {
	for _, size := range []int{2048, 4096, 4097, 8192, 16384} {
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			benchPingpong(b, "crcp-none", size)
		})
	}
}

// --- A6: coordination topology, centralized vs tree ----------------------------

// BenchmarkSnapcTopology compares the full (centralized) and tree
// (hierarchical) SNAPC components checkpointing the same 16-rank job on
// 8 nodes. The centralized coordinator exchanges 2×nodes messages at
// the HNP; the tree exchanges 2, pushing the fan-out into the daemons —
// the scalability trade the paper's framework isolates for study.
func BenchmarkSnapcTopology(b *testing.B) {
	for _, comp := range []string{"full", "tree"} {
		b.Run(comp, func(b *testing.B) {
			params := mca.NewParams()
			params.Set("snapc", comp)
			params.Set("filem_dedup", "0") // measure full gathers (see header)
			sys, err := core.NewSystem(core.Options{Nodes: 8, SlotsPerNode: 2, Params: params, Ins: trace.New()})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			factory, err := apps.Lookup("ring", []string{"-iters", "0"})
			if err != nil {
				b.Fatal(err)
			}
			job, err := sys.Launch(core.JobSpec{Name: "ring", Args: []string{"-iters", "0"}, NP: 16, AppFactory: factory})
			if err != nil {
				b.Fatal(err)
			}
			var phases snapshot.PhaseBreakdown
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sys.Checkpoint(job.JobID(), false)
				if err != nil {
					b.Fatal(err)
				}
				phases.Accumulate(res.Meta.Phases)
			}
			b.StopTimer()
			reportPhases(b, &phases)
			if _, err := sys.Checkpoint(job.JobID(), true); err != nil {
				b.Fatal(err)
			}
			if err := job.Wait(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// --- A7: checkpoint pipeline robustness vs injected fault rate -----------------

// BenchmarkFaultRetryAblation drives periodic checkpoints of an 8-rank
// job while the fault plan fails a fraction of FILEM transfers, with the
// retry policy disabled and enabled. Reported metrics: committed
// checkpoints as a percentage of attempts (ok-%) and modeled time per
// attempt. The claim under test: bounded retries convert transient
// transfer faults from aborted intervals into slightly slower commits,
// and an aborted interval never costs more than the work it staged.
func BenchmarkFaultRetryAblation(b *testing.B) {
	for _, rate := range []float64{0, 0.1, 0.3} {
		for _, retries := range []int{0, 3} {
			b.Run(fmt.Sprintf("rate=%.0f%%/retries=%d", rate*100, retries), func(b *testing.B) {
				params := mca.NewParams()
				if rate > 0 {
					params.Set("fault_plan", fmt.Sprintf("seed=42; filem.transfer=p%g", rate))
				}
				params.Set("filem_retry_max", fmt.Sprintf("%d", retries))
				params.Set("filem_retry_backoff", "1ms")
				params.Set("filem_dedup", "0") // measure full gathers (see header)
				sys, err := core.NewSystem(core.Options{Nodes: 4, SlotsPerNode: 2, Params: params, Ins: trace.New()})
				if err != nil {
					b.Fatal(err)
				}
				defer sys.Close()
				factory, err := apps.Lookup("ring", []string{"-iters", "0"})
				if err != nil {
					b.Fatal(err)
				}
				job, err := sys.Launch(core.JobSpec{Name: "ring", Args: []string{"-iters", "0"}, NP: 8, AppFactory: factory})
				if err != nil {
					b.Fatal(err)
				}
				clock := sys.Cluster().Clock()
				clock.Reset()
				committed := 0
				var phases snapshot.PhaseBreakdown
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if res, err := sys.Checkpoint(job.JobID(), false); err == nil {
						committed++
						phases.Accumulate(res.Meta.Phases)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(committed)*100/float64(b.N), "ok-%")
				b.ReportMetric(clock.Elapsed().Seconds()*1e3/float64(b.N), "sim-ms/attempt")
				reportPhases(b, &phases)
				// End the job. A terminating checkpoint stops the ranks even
				// when its gather aborts, so stop retrying once the job is
				// down regardless of whether the final interval committed.
				for tries := 0; ; tries++ {
					if _, err := sys.Checkpoint(job.JobID(), true); err == nil || job.Done() {
						break
					}
					// The terminate directive may have landed even though the
					// gather aborted; give the ranks a moment to wind down.
					time.Sleep(5 * time.Millisecond)
					if job.Done() {
						break
					}
					if tries > 100 {
						b.Fatal("could not terminate the job through a checkpoint")
					}
				}
				if err := job.Wait(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// --- A8: incremental content-addressed gathers ---------------------------------

// BenchmarkIncrementalGather compares a full gather against the
// content-addressed incremental path while a fraction of each node's
// checkpoint files mutates between intervals. 8 nodes each stage 16
// files of 256 KiB; the incremental mode dedups against a committed
// previous interval already on stable storage. Reported metrics:
// modeled gather time and uplink bytes actually moved. The claim under
// test: at low mutation rates the incremental gather moves a small
// fraction of the bytes and a correspondingly small fraction of the
// modeled time, while producing a byte-identical interval.
func BenchmarkIncrementalGather(b *testing.B) {
	const (
		nodes        = 8
		filesPerNode = 16
		fileSize     = 256 << 10
	)
	// Deterministic, per-file content; v distinguishes mutated versions.
	// A unique header keeps any two (node, file, version) bodies distinct
	// so the dedup index never aliases them.
	body := func(node, f, v int) []byte {
		data := make([]byte, fileSize)
		copy(data, fmt.Sprintf("node=%d file=%d version=%d|", node, f, v))
		for i := range data {
			data[i] += byte(i % 251)
		}
		return data
	}
	for _, mode := range []string{"full", "incremental"} {
		for _, mutate := range []float64{0, 0.10, 0.50, 1.0} {
			b.Run(fmt.Sprintf("%s/mutate=%.0f%%", mode, mutate*100), func(b *testing.B) {
				mutN := int(mutate*filesPerNode + 0.5)
				stable := vfs.NewMem()
				stores := map[string]*vfs.Mem{filem.StableNode: stable}
				topo := netsim.NewTopology(netsim.DefaultIngress)
				byHash := make(map[string]string)
				var reqs []filem.Request
				for i := 0; i < nodes; i++ {
					name := fmt.Sprintf("n%d", i)
					stores[name] = vfs.NewMem()
					topo.AddNode(name, netsim.DefaultUplink)
					for f := 0; f < filesPerNode; f++ {
						base := body(i, f, 0)
						rel := fmt.Sprintf("n%d/f%03d.bin", i, f)
						// The committed previous interval on stable storage
						// and its manifest, as SNAPC would hand them over.
						if err := stable.WriteFile("g/0/"+rel, base); err != nil {
							b.Fatal(err)
						}
						byHash[vfs.HashBytes(base)] = rel
						// The node's staged state for the next interval: the
						// first mutN files changed, the rest untouched.
						v := 0
						if f < mutN {
							v = 1
						}
						if err := stores[name].WriteFile(fmt.Sprintf("snap/f%03d.bin", f), body(i, f, v)); err != nil {
							b.Fatal(err)
						}
					}
					req := filem.Request{
						SrcNode: name, SrcPath: "snap",
						DstNode: filem.StableNode, DstPath: fmt.Sprintf("g/1/n%d", i),
					}
					if mode == "incremental" {
						req.Baseline = &filem.Baseline{Dir: "g/0", ByHash: byHash}
					}
					reqs = append(reqs, req)
				}
				clock := &netsim.Clock{}
				env := &filem.Env{
					Resolve: func(node string) (vfs.FS, error) {
						fs, ok := stores[node]
						if !ok {
							return nil, fmt.Errorf("unknown node")
						}
						return fs, nil
					},
					Topo: topo, Clock: clock,
				}
				comp := &filem.Raw{}
				var moved int64
				b.SetBytes(int64(nodes * filesPerNode * fileSize))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st, err := comp.Move(env, reqs)
					if err != nil {
						b.Fatal(err)
					}
					moved += st.BytesMoved
				}
				b.StopTimer()
				b.ReportMetric(clock.Elapsed().Seconds()*1e3/float64(b.N), "sim-ms/gather")
				b.ReportMetric(float64(moved)/float64(b.N)/(1<<20), "moved-MB/gather")
			})
		}
	}
}

// --- A9: k-way replication overhead --------------------------------------------

// BenchmarkReplicationOverhead measures the durability layer's replica
// push at the A8 workload (8 ranks × 16 files × 256 KiB, ~10% of each
// rank's files mutated between intervals) against the replication
// factor k. A two-interval committed lineage is built once on stable
// storage; per iteration, interval 0 is seeded cold onto every holder
// outside the timer and the measured cost is the steady-state push of
// interval 1, which — exactly like SNAPC's post-commit push — dedups
// against the holder's previous replica and verifies every landed copy.
// Reported metrics: modeled push time and replica bytes moved per
// checkpoint. The claim under test: steady-state k-way durability costs
// k times the mutated bytes, not k times the checkpoint.
func BenchmarkReplicationOverhead(b *testing.B) {
	const (
		ranks        = 8
		filesPerRank = 16
		fileSize     = 256 << 10
		mutPerRank   = 2 // ~10% of each rank's files mutate between intervals
	)
	body := func(rank, f, v int) []byte {
		data := make([]byte, fileSize)
		copy(data, fmt.Sprintf("rank=%d file=%d version=%d|", rank, f, v))
		for i := range data {
			data[i] += byte(i % 251)
		}
		return data
	}
	// The committed lineage every push reads from, built once.
	stable := vfs.NewMem()
	ref := snapshot.GlobalRef{FS: stable, Dir: snapshot.GlobalDirName(1)}
	var rankNodes []string
	for r := 0; r < ranks; r++ {
		rankNodes = append(rankNodes, fmt.Sprintf("n%d", r))
	}
	for iv := 0; iv < 2; iv++ {
		meta := snapshot.GlobalMeta{
			JobID: 1, Interval: iv, Taken: time.Now(),
			NumProcs: ranks, AppName: "bench", Nodes: rankNodes,
		}
		stage := ref.StageDir(iv)
		for r := 0; r < ranks; r++ {
			ldir := snapshot.LocalDirName(r)
			var files []string
			for f := 0; f < filesPerRank; f++ {
				files = append(files, fmt.Sprintf("f%03d.bin", f))
			}
			lm := snapshot.LocalMeta{
				Component: "simcr", JobID: 1, Vpid: r, Interval: iv,
				Node: rankNodes[r], Files: files, Taken: time.Now(),
			}
			if _, err := snapshot.WriteLocal(stable, path.Join(stage, ldir), lm); err != nil {
				b.Fatal(err)
			}
			for f := 0; f < filesPerRank; f++ {
				v := 0
				if iv == 1 && f < mutPerRank {
					v = 1
				}
				if err := stable.WriteFile(path.Join(stage, ldir, files[f]), body(r, f, v)); err != nil {
					b.Fatal(err)
				}
			}
			meta.Procs = append(meta.Procs, snapshot.ProcEntry{
				Vpid: r, Node: rankNodes[r], Component: "simcr", LocalDir: ldir,
			})
		}
		if err := snapshot.WriteGlobal(ref, meta); err != nil {
			b.Fatal(err)
		}
	}
	meta0, err := snapshot.ReadGlobal(ref, 0)
	if err != nil {
		b.Fatal(err)
	}
	prevIdx := meta0.ByChecksum()

	for _, k := range []int{0, 1, 2, 3} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			comp := &filem.Raw{}
			var moved int64
			var sim time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				stores := map[string]*vfs.Mem{filem.StableNode: stable}
				topo := netsim.NewTopology(netsim.DefaultIngress)
				var holders []string
				for h := 0; h < k; h++ {
					name := fmt.Sprintf("r%d", h)
					stores[name] = vfs.NewMem()
					topo.AddNode(name, netsim.DefaultUplink)
					holders = append(holders, name)
				}
				clock := &netsim.Clock{}
				env := &filem.Env{
					Resolve: func(node string) (vfs.FS, error) {
						fs, ok := stores[node]
						if !ok {
							return nil, fmt.Errorf("unknown node")
						}
						return fs, nil
					},
					Topo: topo, Clock: clock,
				}
				push := func(iv int, baseline *filem.Baseline) filem.Stats {
					var total filem.Stats
					for _, name := range holders {
						st, err := comp.Move(env, []filem.Request{{
							SrcNode: filem.StableNode, SrcPath: ref.IntervalDir(iv),
							DstNode: name, DstPath: snapshot.ReplicaDir(ref.Dir, iv),
							Baseline: baseline,
						}})
						if err != nil {
							b.Fatal(err)
						}
						// The production push verifies every copy it places.
						if _, err := snapshot.VerifyDir(stores[name], snapshot.ReplicaDir(ref.Dir, iv)); err != nil {
							b.Fatal(err)
						}
						total.BytesMoved += st.BytesMoved
						total.BytesDeduped += st.BytesDeduped
					}
					return total
				}
				// Cold seed: interval 0 lands in full on every holder.
				push(0, nil)
				start := clock.Elapsed()
				b.StartTimer()
				st := push(1, &filem.Baseline{Dir: snapshot.ReplicaDir(ref.Dir, 0), ByHash: prevIdx})
				b.StopTimer()
				sim += clock.Elapsed() - start
				moved += st.BytesMoved
			}
			b.ReportMetric(sim.Seconds()*1e3/float64(b.N), "sim-ms/ckpt")
			b.ReportMetric(float64(moved)/float64(b.N)/(1<<20), "replica-MB/ckpt")
		})
	}
}

// --- A10: asynchronous drain pipeline vs synchronous checkpoints -----------

// BenchmarkAsyncDrainPipeline measures the two-phase interval lifecycle
// (DESIGN.md §5c) on a wall-clock-throttled stable store — the one
// bench that needs real elapsed time, because the overlap of capture
// and drain is exactly what is under test. sync mode takes K
// back-to-back blocking checkpoints; async mode captures K intervals
// back-to-back and waits for the background drains once. The claim: the
// application's blocked time per interval drops to the capture phase
// alone (within noise of capture-ms/ckpt), so checkpoint cadence is set
// by capture cost rather than by the throttled gather, while e2e
// latency per interval stays bounded by the same drain bandwidth.
func BenchmarkAsyncDrainPipeline(b *testing.B) {
	const (
		np    = 8
		K     = 4        // intervals per measured burst (= default drain queue)
		cells = 16384    // 128 KiB of state per rank, ~1 MiB per interval
		rate  = 16 << 20 // stable-store write bandwidth: 16 MiB/s
	)
	for _, mode := range []string{"sync", "async"} {
		b.Run("mode="+mode, func(b *testing.B) {
			params := mca.NewParams()
			params.Set("filem_dedup", "0") // measure full gathers (see header)
			sys, err := core.NewSystem(core.Options{
				Nodes: 4, SlotsPerNode: 2, Params: params,
				Stable: vfs.NewThrottle(vfs.NewMem(), rate),
				Ins:    trace.New(),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			args := []string{"-steps", "0", "-cells", fmt.Sprint(cells)}
			factory, err := apps.Lookup("stencil", args)
			if err != nil {
				b.Fatal(err)
			}
			job, err := sys.Launch(core.JobSpec{Name: "stencil", Args: args, NP: np, AppFactory: factory})
			if err != nil {
				b.Fatal(err)
			}
			var phases snapshot.PhaseBreakdown
			var captureWindow, total time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				if mode == "sync" {
					for k := 0; k < K; k++ {
						res, err := sys.Checkpoint(job.JobID(), false)
						if err != nil {
							b.Fatal(err)
						}
						phases.Accumulate(res.Meta.Phases)
					}
					captureWindow += time.Since(start)
				} else {
					pendings := make([]*core.PendingCheckpoint, 0, K)
					for k := 0; k < K; k++ {
						p, err := sys.CheckpointAsync(job.JobID(), false)
						if err != nil {
							b.Fatal(err)
						}
						pendings = append(pendings, p)
					}
					// The application is unblocked here: captureWindow is
					// the whole app-visible cost of the K intervals.
					captureWindow += time.Since(start)
					for _, p := range pendings {
						res, err := p.Wait()
						if err != nil {
							b.Fatal(err)
						}
						phases.Accumulate(res.Meta.Phases)
					}
				}
				total += time.Since(start)
			}
			b.StopTimer()
			n := float64(K * b.N)
			b.ReportMetric(float64(phases.BlockedNS)/1e6/n, "blocked-ms/ckpt")
			b.ReportMetric(float64(phases.QuiesceWallNS+phases.CaptureWallNS)/1e6/n, "capture-ms/ckpt")
			b.ReportMetric(total.Seconds()*1e3/n, "e2e-ms/ckpt")
			b.ReportMetric(n/captureWindow.Seconds(), "cadence-ckpt/s")
			if _, err := sys.Checkpoint(job.JobID(), true); err != nil {
				b.Fatal(err)
			}
			if err := job.Wait(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkRecoveryVsRestart is ablation A11: after a node loss at a
// committed KeepLocal frontier, how long until the job is computing
// again — and how many bytes had to be restored — for in-job single-rank
// recovery versus the whole-job restart ladder, across job sizes. The
// in-job path stages one rank's image and rolls survivors back in
// place; the whole-job path re-stages every rank from stable storage.
func BenchmarkRecoveryVsRestart(b *testing.B) {
	const cells = 4096 // ~32 KiB of state per rank
	for _, np := range []int{4, 8, 16} {
		for _, mode := range []string{"injob", "wholejob"} {
			b.Run(fmt.Sprintf("np=%d/mode=%s", np, mode), func(b *testing.B) {
				var restored, recovered int64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					ins := trace.New()
					sys, err := core.NewSystem(core.Options{
						Nodes: np + 1, SlotsPerNode: 1, Ins: ins,
					})
					if err != nil {
						b.Fatal(err)
					}
					args := []string{"-steps", "0", "-cells", fmt.Sprint(cells)}
					factory, err := apps.Lookup("stencil", args)
					if err != nil {
						b.Fatal(err)
					}
					job, err := sys.Launch(core.JobSpec{Name: "stencil", Args: args, NP: np, AppFactory: factory})
					if err != nil {
						b.Fatal(err)
					}
					if mode == "injob" {
						job.SetRecoveryHandler(sys.Recovery())
					}
					if _, err := sys.Cluster().CheckpointJob(job.JobID(), snapc.Options{KeepLocal: mode == "injob"}); err != nil {
						b.Fatal(err)
					}
					victim := job.NodeOf(np - 1)
					b.StartTimer()
					if err := sys.Cluster().KillNode(victim); err != nil {
						b.Fatal(err)
					}
					live := job
					if mode == "injob" {
						// Recovered ranks are released only after the
						// session completes: the counter marks the job
						// computing again.
						c := ins.Counter("ompi_recovery_recovered_ranks_total")
						for c.Value() == 0 {
							time.Sleep(50 * time.Microsecond)
						}
					} else {
						if err := job.Wait(); err == nil {
							b.Fatal("job survived node loss without a recovery handler")
						}
						ref, err := sys.OpenGlobalSnapshot(snapshot.GlobalDirName(int(job.JobID())))
						if err != nil {
							b.Fatal(err)
						}
						live, err = sys.RestartLatest(ref, factory)
						if err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					restored += ins.Counter("ompi_recovery_restored_bytes_total").Value() +
						ins.Counter("ompi_restart_restored_bytes_total").Value()
					recovered++
					// Released ranks re-arm checkpointability as they resume;
					// give the terminate checkpoint a few tries.
					for tries := 0; ; tries++ {
						if _, err = sys.Checkpoint(live.JobID(), true); err == nil {
							break
						}
						if tries > 100 {
							b.Fatal(err)
						}
						time.Sleep(time.Millisecond)
					}
					if err := live.Wait(); err != nil {
						b.Fatal(err)
					}
					sys.Close()
				}
				b.ReportMetric(float64(restored)/float64(recovered)/1024, "restored-KiB/recovery")
			})
		}
	}
}

// BenchmarkLedgerOverhead is half of ablation A12: what the durable HNP
// job ledger's write-through costs per committed checkpoint. Identical
// checkpoint loops with hnp_ledger on and off; the delta between the
// two ns/op columns is the ledger tax (the acceptance bar is <5%).
func BenchmarkLedgerOverhead(b *testing.B) {
	const np, cells = 8, 4096
	for _, ledgerOn := range []bool{true, false} {
		name := "ledger=on"
		if !ledgerOn {
			name = "ledger=off"
		}
		b.Run(name, func(b *testing.B) {
			params := mca.NewParams()
			params.Set("hnp_ledger", fmt.Sprint(ledgerOn))
			sys, err := core.NewSystem(core.Options{
				Nodes: 4, SlotsPerNode: 2, Params: params, Ins: trace.New(),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			args := []string{"-steps", "0", "-cells", fmt.Sprint(cells)}
			factory, err := apps.Lookup("stencil", args)
			if err != nil {
				b.Fatal(err)
			}
			job, err := sys.Launch(core.JobSpec{Name: "stencil", Args: args, NP: np, AppFactory: factory})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Cluster().CheckpointJob(job.JobID(), snapc.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if _, err := sys.Checkpoint(job.JobID(), true); err != nil {
				b.Fatal(err)
			}
			if err := job.Wait(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkCadence is ablation A14: checkpoint cadence policy under a
// seeded fault plan — a sweep of fixed single-level blocking cadences
// (the classic pre-multilevel policy) against the self-tuning
// multilevel engine (`--levels auto`), on a bandwidth-throttled stable
// store as in A10: stable ingress, not capture, is the checkpoint
// bottleneck. Each iteration supervises a finite stencil job (steps ×
// delay of real compute) through a node kill with auto-restart; the
// headline metric is waste-ms/run, the wall time beyond the fault-free
// ideal: checkpoint overhead + rollback recompute + restart latency,
// the exact sum Young/Daly trades off. Fixed cadences lose on one side
// or the other — tight ones block through the throttled gather every
// interval, loose ones lose a long rollback window per kill. The tuner
// pays cheap L1/L2 holds (sealed node-local, never crossing the
// throttled ingress) at a tight learned cadence and rare asynchronous
// L3 commits, so its waste undercuts every fixed point in the sweep.
func BenchmarkCadence(b *testing.B) {
	const (
		np    = 8
		steps = 100
		cells = 4096    // ~32 KiB of state per rank, ~256 KiB per interval
		rate  = 4 << 20 // stable-store write bandwidth: 4 MiB/s
	)
	const delay = 4 * time.Millisecond
	ideal := time.Duration(steps) * delay
	type policy struct {
		name string
		opts core.SuperviseOptions
	}
	var policies []policy
	for _, d := range []time.Duration{
		3 * time.Millisecond, 6 * time.Millisecond, 12 * time.Millisecond,
		24 * time.Millisecond, 48 * time.Millisecond,
	} {
		policies = append(policies, policy{
			name: fmt.Sprintf("fixed=%s", d),
			opts: core.SuperviseOptions{CheckpointEvery: d},
		})
	}
	policies = append(policies, policy{
		name: "auto",
		opts: core.SuperviseOptions{Levels: core.Levels{
			Auto:   true,
			Replan: 4 * time.Millisecond,
			Tuning: cadence.Config{Min: 3 * time.Millisecond, Max: 300 * time.Millisecond},
		}},
	})
	for _, pol := range policies {
		b.Run("cadence="+pol.name, func(b *testing.B) {
			var waste, blocked time.Duration
			var ckpts, retunes int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				params := mca.NewParams()
				params.Set("fault_plan", "seed=13; node.kill:node2=after30,once")
				params.Set("snapc_stage_replicas", "1")
				params.Set("orted_heartbeat_interval", "10ms")
				params.Set("orted_heartbeat_miss", "8")
				// A kill can tear a capture fan-out in half; fail the torn
				// frontier at detection speed, not the 10s conservative
				// default, so one unlucky overlap does not dominate a run.
				params.Set("ompi_directive_timeout", "100ms")
				sys, err := core.NewSystem(core.Options{
					Nodes: 5, SlotsPerNode: 3, Params: params,
					Stable: vfs.NewThrottle(vfs.NewMem(), rate),
					Ins:    trace.New(),
				})
				if err != nil {
					b.Fatal(err)
				}
				args := []string{
					"-steps", fmt.Sprint(steps), "-cells", fmt.Sprint(cells),
					"-delay", delay.String(),
				}
				factory, err := apps.Lookup("stencil", args)
				if err != nil {
					b.Fatal(err)
				}
				job, err := sys.Launch(core.JobSpec{Name: "stencil", Args: args, NP: np, AppFactory: factory})
				if err != nil {
					b.Fatal(err)
				}
				opts := pol.opts
				opts.Recovery = core.Recovery{AutoRestart: 3}
				start := time.Now()
				b.StartTimer()
				rep, err := sys.Supervise(job, factory, opts)
				b.StopTimer()
				if err != nil {
					b.Fatalf("Supervise: %v (report %+v)", err, rep)
				}
				waste += time.Since(start) - ideal
				blocked += time.Duration(rep.Phases.BlockedNS)
				ckpts += rep.Checkpoints + rep.LevelCheckpoints[0] + rep.LevelCheckpoints[1]
				retunes += rep.Retunes
				sys.Close()
			}
			b.ReportMetric(waste.Seconds()*1e3/float64(b.N), "waste-ms/run")
			b.ReportMetric(blocked.Seconds()*1e3/float64(b.N), "blocked-ms/run")
			b.ReportMetric(float64(ckpts)/float64(b.N), "ckpts/run")
			b.ReportMetric(float64(retunes)/float64(b.N), "retunes/run")
		})
	}
}

// BenchmarkHNPReattachMTTR is the other half of A12: mean time to
// repair the control plane. Each iteration kills the coordinator
// (CrashHNP) and times Reattach — endpoint re-registration, per-orted
// handshake, ledger reconciliation and journal recovery — until the
// cluster answers coordinator verbs again.
func BenchmarkHNPReattachMTTR(b *testing.B) {
	const np, cells = 8, 4096
	sys, err := core.NewSystem(core.Options{
		Nodes: 4, SlotsPerNode: 2, Ins: trace.New(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	args := []string{"-steps", "0", "-cells", fmt.Sprint(cells)}
	factory, err := apps.Lookup("stencil", args)
	if err != nil {
		b.Fatal(err)
	}
	job, err := sys.Launch(core.JobSpec{Name: "stencil", Args: args, NP: np, AppFactory: factory})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Cluster().CheckpointJob(job.JobID(), snapc.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := sys.Cluster().CrashHNP(fmt.Errorf("bench crash %d", i)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := sys.Reattach(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if _, err := sys.Checkpoint(job.JobID(), true); err != nil {
		b.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		b.Fatal(err)
	}
}
