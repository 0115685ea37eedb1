package netpipe

import (
	"slices"
	"strings"
	"testing"
	"time"
)

// quickSizes keeps unit tests fast; benchmarks use DefaultSizes.
var quickSizes = []int{1, 64, 4096, 65536}

func runQuick(t *testing.T, mode Mode) Series {
	t.Helper()
	s, err := Run(Config{Mode: mode, Sizes: quickSizes, Reps: 50, Warmup: 4})
	if err != nil {
		t.Fatalf("Run(%v): %v", mode, err)
	}
	return s
}

// runQuickModes measures several modes with interleaved trials.
func runQuickModes(t *testing.T, modes ...Mode) []Series {
	t.Helper()
	out, err := RunModes(Config{Sizes: quickSizes, Reps: 50, Warmup: 4}, modes...)
	if err != nil {
		t.Fatalf("RunModes(%v): %v", modes, err)
	}
	return out
}

func TestModeString(t *testing.T) {
	if ModeDirect.String() != "direct" || ModeNone.String() != "crcp-none" || ModeBkmrk.String() != "crcp-bkmrk" {
		t.Error("mode names changed")
	}
	if Mode(9).String() != "mode(9)" {
		t.Error("unknown mode formatting")
	}
}

func TestAllModesProduceSaneSeries(t *testing.T) {
	for _, mode := range []Mode{ModeDirect, ModeNone, ModeBkmrk} {
		s := runQuick(t, mode)
		if len(s.Points) != len(quickSizes) {
			t.Fatalf("%v: %d points", mode, len(s.Points))
		}
		for i, p := range s.Points {
			if p.Size != quickSizes[i] {
				t.Errorf("%v point %d size = %d", mode, i, p.Size)
			}
			if p.Latency <= 0 || p.Latency > time.Second {
				t.Errorf("%v size %d latency = %v", mode, p.Size, p.Latency)
			}
			if p.Bandwidth <= 0 {
				t.Errorf("%v size %d bandwidth = %v", mode, p.Size, p.Bandwidth)
			}
		}
		// Bandwidth grows with message size (monotone-ish: compare ends).
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		if last.Bandwidth <= first.Bandwidth {
			t.Errorf("%v: bandwidth did not grow with size: %v .. %v", mode, first.Bandwidth, last.Bandwidth)
		}
	}
}

func TestCompareAlignsSizes(t *testing.T) {
	pair := runQuickModes(t, ModeDirect, ModeNone)
	base, test := pair[0], pair[1]
	if base.Mode != ModeDirect || test.Mode != ModeNone {
		t.Fatalf("modes = %v, %v", base.Mode, test.Mode)
	}
	ovh, err := Compare(base, test)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if len(ovh) != len(quickSizes) {
		t.Fatalf("overheads = %d", len(ovh))
	}
	for _, o := range ovh {
		// Sanity only: the wrapper can't plausibly double latency.
		if o.LatencyPct > 100 || o.LatencyPct < -50 {
			t.Errorf("size %d latency overhead %.1f%% implausible", o.Size, o.LatencyPct)
		}
	}
	// Mismatched series are rejected.
	if _, err := Compare(base, Series{Mode: ModeNone, Points: base.Points[:1]}); err == nil {
		t.Error("Compare accepted length mismatch")
	}
	bad := Series{Mode: ModeNone, Points: append([]Point{}, base.Points...)}
	bad.Points[0].Size = 3
	if _, err := Compare(base, bad); err == nil {
		t.Error("Compare accepted size mismatch")
	}
}

// TestComparePairsTrials checks that interleaved series are compared
// trial by trial: one slow base trial (a transient) shifts one pair, not
// the median.
func TestComparePairsTrials(t *testing.T) {
	us := func(xs ...int) []time.Duration {
		out := make([]time.Duration, len(xs))
		for i, x := range xs {
			out[i] = time.Duration(x) * time.Microsecond
		}
		return out
	}
	base := Series{Mode: ModeDirect, Points: []Point{{Size: 8, Latency: 10 * time.Microsecond, Trials: us(10, 40, 10)}}}
	test := Series{Mode: ModeNone, Points: []Point{{Size: 8, Latency: 11 * time.Microsecond, Trials: us(11, 11, 11)}}}
	ovh, err := Compare(base, test)
	if err != nil {
		t.Fatal(err)
	}
	if got := ovh[0].LatencyPct; got < 9.99 || got > 10.01 {
		t.Errorf("paired latency overhead = %.2f%%, want 10%%", got)
	}
	// Series without paired trials are rejected.
	test.Points[0].Trials = us(11, 11)
	if _, err := Compare(base, test); err == nil {
		t.Error("Compare accepted differing trial counts")
	}
	base.Points[0].Trials, test.Points[0].Trials = nil, nil
	if _, err := Compare(base, test); err == nil {
		t.Error("Compare accepted series without trials")
	}
}

func TestRunModesPairsTrials(t *testing.T) {
	out := runQuickModes(t, ModeDirect, ModeNone, ModeBkmrk)
	if len(out) != 3 {
		t.Fatalf("%d series", len(out))
	}
	for _, s := range out {
		for _, p := range s.Points {
			if len(p.Trials) != 5 || slices.Min(p.Trials) != p.Latency {
				t.Errorf("%v size %d: trials %v, latency %v", s.Mode, p.Size, p.Trials, p.Latency)
			}
		}
	}
}

func TestDefaultSizesShape(t *testing.T) {
	sizes := DefaultSizes()
	if sizes[0] != 1 || sizes[len(sizes)-1] != 1<<22 {
		t.Errorf("sizes = %v..%v", sizes[0], sizes[len(sizes)-1])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] != sizes[i-1]*2 {
			t.Errorf("sizes not doubling at %d", i)
		}
	}
}

func TestWriters(t *testing.T) {
	pair := runQuickModes(t, ModeDirect, ModeNone)
	base, s := pair[0], pair[1]
	var b strings.Builder
	WriteTable(&b, s)
	out := b.String()
	if !strings.Contains(out, "crcp-none") || !strings.Contains(out, "bytes") {
		t.Errorf("table output: %q", out)
	}
	ovh, err := Compare(base, s)
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	WriteComparison(&b, base, s, ovh)
	if !strings.Contains(b.String(), "lat-ovh%") {
		t.Errorf("comparison output: %q", b.String())
	}
}
