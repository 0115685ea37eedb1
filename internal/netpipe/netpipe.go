// Package netpipe reproduces the paper's evaluation instrument (§7): a
// NetPIPE-style ping-pong that measures point-to-point latency and
// bandwidth across message sizes, comparing the MPI stack without the
// C/R infrastructure against the stack with the infrastructure and
// passthrough components installed (and, additionally, with the full
// bookmark protocol counting every message).
//
// The paper reports ~3% small-message latency overhead (attributed to
// function-call indirection), ~0% for large messages, and 0% bandwidth
// overhead. The same shape is expected here: the wrapper adds a fixed
// per-message cost that vanishes as payload copying dominates.
package netpipe

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/mca"
	"repro/internal/ompi/btl"
	"repro/internal/ompi/crcp"
	"repro/internal/ompi/pml"
)

// Mode selects the C/R configuration under test.
type Mode int

const (
	// ModeDirect: no C/R infrastructure at all (hooks absent) — the
	// baseline Open MPI build of the paper's comparison.
	ModeDirect Mode = iota
	// ModeNone: infrastructure in place with passthrough components
	// (crcp=none) — the paper's measured configuration.
	ModeNone
	// ModeBkmrk: full coordination protocol counting every message.
	ModeBkmrk
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeDirect:
		return "direct"
	case ModeNone:
		return "crcp-none"
	case ModeBkmrk:
		return "crcp-bkmrk"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Point is one measured size.
type Point struct {
	Size      int           // message bytes
	Latency   time.Duration // one-way (half round trip), fastest trial
	Bandwidth float64       // MB/s at Latency
	// Trials is the one-way latency of every trial, in trial order.
	// Series measured together by RunModes have paired trials: trial i
	// of every mode ran back to back.
	Trials []time.Duration
}

// Series is a full sweep in one mode.
type Series struct {
	Mode   Mode
	Points []Point
}

// Config parameterizes a run.
type Config struct {
	Mode Mode
	// Sizes to sweep; nil = DefaultSizes().
	Sizes []int
	// Reps per batch; a trial runs batches of round trips until it has
	// lasted at least minTrial. 0 = auto (more reps for small messages).
	Reps int
	// Warmup iterations before every trial; 0 = 8.
	Warmup int
	// Trials per size; the reported latency is the fastest trial
	// (the standard noise floor estimator for latency microbenchmarks).
	// 0 = 5.
	Trials int
	// EagerLimit overrides the PML eager threshold; 0 = default.
	EagerLimit int
	// Transport selects the BTL component ("sm" default, or "tcp" for
	// real loopback sockets with kernel-realistic latencies).
	Transport string
}

// DefaultSizes returns the NetPIPE-style sweep: powers of two from 1
// byte to 4 MiB.
func DefaultSizes() []int {
	var out []int
	for s := 1; s <= 1<<22; s <<= 1 {
		out = append(out, s)
	}
	return out
}

// repsFor scales repetitions down as sizes grow so the sweep stays
// affordable while small-message timings stay stable.
func repsFor(size int) int {
	switch {
	case size <= 1<<10:
		return 2000
	case size <= 1<<16:
		return 400
	case size <= 1<<20:
		return 60
	default:
		return 16
	}
}

// world builds the two-rank fixture for a mode.
func world(cfg Config) ([2]*pml.Engine, error) {
	transport := cfg.Transport
	if transport == "" {
		transport = "sm"
	}
	btlComp, err := btl.NewFramework().Lookup(transport)
	if err != nil {
		return [2]*pml.Engine{}, err
	}
	fabric, err := btlComp.NewFabric(2)
	if err != nil {
		return [2]*pml.Engine{}, err
	}
	var engines [2]*pml.Engine
	for r := 0; r < 2; r++ {
		ep, err := fabric.Attach(r)
		if err != nil {
			return engines, err
		}
		engines[r] = pml.New(pml.Config{Rank: r, Size: 2, Endpoint: ep, EagerLimit: cfg.EagerLimit})
	}
	switch cfg.Mode {
	case ModeDirect:
		// no hooks at all
	case ModeNone:
		comp := &crcp.NoneComponent{}
		for r := 0; r < 2; r++ {
			engines[r].SetHooks(comp.Wrap(engines[r], mca.NewParams(), nil))
		}
	case ModeBkmrk:
		comp := &crcp.BkmrkComponent{}
		for r := 0; r < 2; r++ {
			engines[r].SetHooks(comp.Wrap(engines[r], mca.NewParams(), nil))
		}
	default:
		return engines, fmt.Errorf("netpipe: unknown mode %v", cfg.Mode)
	}
	return engines, nil
}

// minTrial is the shortest a timed trial may run. Trials of a few
// hundred microseconds fit inside one scheduler time slice, so on a
// loaded host a single preemption multiplied their latency.
const minTrial = 10 * time.Millisecond

// Run executes the sweep for cfg.Mode and returns the series. Series
// from separate Run calls are not paired; use RunModes to compare modes.
func Run(cfg Config) (Series, error) {
	out, err := RunModes(cfg, cfg.Mode)
	if err != nil {
		return Series{}, err
	}
	return out[0], nil
}

// RunModes sweeps several modes over the same sizes with their trials
// interleaved: at each size, trial t of every mode runs before trial t+1
// of any, in an order that rotates with t. A transient (a GC cycle, the
// other core waking up) then lands on one trial of one mode instead of
// a whole series, and Compare can pair trial i of two modes.
func RunModes(cfg Config, modes ...Mode) ([]Series, error) {
	sizes := cfg.Sizes
	if sizes == nil {
		sizes = DefaultSizes()
	}
	warmup := cfg.Warmup
	if warmup <= 0 {
		warmup = 8
	}
	trials := cfg.Trials
	if trials <= 0 {
		trials = 5
	}
	worlds := make([][2]*pml.Engine, len(modes))
	out := make([]Series, len(modes))
	for i, m := range modes {
		c := cfg
		c.Mode = m
		engines, err := world(c)
		if err != nil {
			return nil, err
		}
		worlds[i] = engines
		out[i].Mode = m
	}

	const tag, stopTag = 3, 4
	for _, size := range sizes {
		reps := cfg.Reps
		if reps <= 0 {
			reps = repsFor(size)
		}
		payload := make([]byte, size)
		// One echo side per mode, until told to stop; an idle one blocks
		// in Recv.
		var wg sync.WaitGroup
		for i := range modes {
			wg.Add(1)
			go func(e *pml.Engine) {
				defer wg.Done()
				for {
					data, st, err := e.Recv(0, pml.AnyTag)
					if err != nil || st.Tag == stopTag {
						return
					}
					if err := e.Send(0, tag, data); err != nil {
						return
					}
				}
			}(worlds[i][1])
		}
		roundTrips := func(e *pml.Engine, k int) error {
			for i := 0; i < k; i++ {
				if err := e.Send(1, tag, payload); err != nil {
					return err
				}
				if _, _, err := e.Recv(1, tag); err != nil {
					return err
				}
			}
			return nil
		}
		// trial times one trial of world e. It re-warms the pair first:
		// the echo side went idle while the other modes ran. It then
		// runs batches of reps round trips for at least minTrial, so a
		// trial spans many scheduler time slices and a preemption
		// stretches it by a fraction, not a multiple.
		trial := func(e *pml.Engine) (time.Duration, error) {
			if err := roundTrips(e, warmup); err != nil {
				return 0, err
			}
			start := time.Now()
			n := 0
			for n == 0 || time.Since(start) < minTrial {
				if err := roundTrips(e, reps); err != nil {
					return 0, err
				}
				n += reps
			}
			return time.Since(start) / time.Duration(2*n), nil
		}
		stopEchoes := func() {
			for i := range modes {
				_ = worlds[i][0].Send(1, stopTag, nil)
			}
		}
		lat := make([][]time.Duration, len(modes))
		for t := 0; t < trials; t++ {
			for j := range modes {
				i := (j + t) % len(modes)
				d, err := trial(worlds[i][0])
				if err != nil {
					stopEchoes()
					return nil, fmt.Errorf("netpipe: %v size %d: %w", modes[i], size, err)
				}
				lat[i] = append(lat[i], d)
			}
		}
		stopEchoes()
		wg.Wait()
		for i := range modes {
			best := slices.Min(lat[i])
			bw := 0.0
			if best > 0 {
				bw = float64(size) / best.Seconds() / 1e6
			}
			out[i].Points = append(out[i].Points, Point{Size: size, Latency: best, Bandwidth: bw, Trials: lat[i]})
		}
	}
	return out, nil
}

// Overhead is the relative cost of a test series against a baseline at
// one size.
type Overhead struct {
	Size         int
	BaseLatency  time.Duration
	TestLatency  time.Duration
	LatencyPct   float64 // (test-base)/base * 100
	BandwidthPct float64
}

// Compare aligns two series by size and computes relative overheads.
// The series must have paired trials (measured together by RunModes):
// each overhead is the median over trial pairs, so a transient that hit
// one trial of one mode cannot skew it.
func Compare(base, test Series) ([]Overhead, error) {
	if len(base.Points) != len(test.Points) {
		return nil, fmt.Errorf("netpipe: series length mismatch: %d vs %d", len(base.Points), len(test.Points))
	}
	var out []Overhead
	for i, b := range base.Points {
		x := test.Points[i]
		if b.Size != x.Size {
			return nil, fmt.Errorf("netpipe: size mismatch at %d: %d vs %d", i, b.Size, x.Size)
		}
		if len(b.Trials) == 0 || len(b.Trials) != len(x.Trials) {
			return nil, fmt.Errorf("netpipe: size %d: trials are not paired (%d vs %d)", b.Size, len(b.Trials), len(x.Trials))
		}
		lat := make([]float64, len(b.Trials))
		bw := make([]float64, len(b.Trials))
		for j, bl := range b.Trials {
			xl := x.Trials[j]
			if bl <= 0 || xl <= 0 {
				return nil, fmt.Errorf("netpipe: size %d trial %d: non-positive latency", b.Size, j)
			}
			lat[j] = (float64(xl) - float64(bl)) / float64(bl) * 100
			bw[j] = (float64(bl)/float64(xl) - 1) * 100
		}
		out = append(out, Overhead{
			Size: b.Size, BaseLatency: b.Latency, TestLatency: x.Latency,
			LatencyPct: median(lat), BandwidthPct: median(bw),
		})
	}
	return out, nil
}

// median returns the middle value of xs (the mean of the middle two for
// an even count); xs is reordered.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// WriteTable renders a series as the familiar NetPIPE columns.
func WriteTable(w io.Writer, s Series) {
	fmt.Fprintf(w, "# NetPIPE-style sweep, mode=%s\n", s.Mode)
	fmt.Fprintf(w, "%12s %14s %14s\n", "bytes", "latency", "MB/s")
	for _, p := range s.Points {
		fmt.Fprintf(w, "%12d %14s %14.2f\n", p.Size, p.Latency, p.Bandwidth)
	}
}

// WriteComparison renders the paper's overhead comparison.
func WriteComparison(w io.Writer, base, test Series, overheads []Overhead) {
	fmt.Fprintf(w, "# Overhead of %s vs %s (paper §7: ~3%% small-message latency, ~0%% large, 0%% bandwidth)\n", test.Mode, base.Mode)
	fmt.Fprintf(w, "%12s %14s %14s %10s %10s\n", "bytes", "base-lat", "test-lat", "lat-ovh%", "bw-ovh%")
	for _, o := range overheads {
		fmt.Fprintf(w, "%12d %14s %14s %9.2f%% %9.2f%%\n", o.Size, o.BaseLatency, o.TestLatency, o.LatencyPct, -o.BandwidthPct)
	}
}
