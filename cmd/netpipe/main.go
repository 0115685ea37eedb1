// Command netpipe regenerates the paper's evaluation (§7): NetPIPE-style
// latency and bandwidth sweeps comparing the MPI stack without the C/R
// infrastructure (direct), with the infrastructure and passthrough
// components (crcp-none, the paper's measured configuration), and with
// the full coordinated protocol (crcp-bkmrk).
//
//	netpipe                      # latency + bandwidth + overhead tables
//	netpipe -series latency      # just the latency comparison
//	netpipe -series inventory    # framework/component inventory (R3)
//	netpipe -quick               # smaller sweep
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/netpipe"
	"repro/internal/ompi/btl"
	"repro/internal/ompi/crcp"
	"repro/internal/opal/crs"
	"repro/internal/orte/filem"
	"repro/internal/orte/plm"
	"repro/internal/orte/snapc"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "netpipe:", err)
		os.Exit(1)
	}
}

func run() error {
	series := flag.String("series", "all", "latency | bandwidth | overhead | inventory | all")
	quick := flag.Bool("quick", false, "smaller sweep (fewer sizes and reps)")
	transport := flag.String("transport", "sm", "BTL transport: sm (in-process) or tcp (loopback sockets)")
	flag.Parse()

	if *series == "inventory" {
		printInventory()
		return nil
	}

	cfg := netpipe.Config{Transport: *transport}
	if *quick {
		cfg.Sizes = []int{1, 16, 256, 4096, 65536, 1 << 20}
		cfg.Reps = 200
	}

	// The three modes run with their trials interleaved per size, so
	// the overhead tables compare paired trials.
	all, err := netpipe.RunModes(cfg, netpipe.ModeDirect, netpipe.ModeNone, netpipe.ModeBkmrk)
	if err != nil {
		return err
	}
	direct, none, bkmrk := all[0], all[1], all[2]

	switch *series {
	case "latency", "bandwidth", "all":
		netpipe.WriteTable(os.Stdout, direct)
		fmt.Println()
		netpipe.WriteTable(os.Stdout, none)
		fmt.Println()
		netpipe.WriteTable(os.Stdout, bkmrk)
		fmt.Println()
		fallthrough
	case "overhead":
		ovhNone, err := netpipe.Compare(direct, none)
		if err != nil {
			return err
		}
		netpipe.WriteComparison(os.Stdout, direct, none, ovhNone)
		fmt.Println()
		ovhBk, err := netpipe.Compare(direct, bkmrk)
		if err != nil {
			return err
		}
		netpipe.WriteComparison(os.Stdout, direct, bkmrk, ovhBk)
	default:
		return fmt.Errorf("unknown series %q", *series)
	}
	return nil
}

// printInventory is experiment R3's supporting data: the modular
// decomposition that made the bookmark protocol a "few weeks" component
// rather than a months-long fork.
func printInventory() {
	fmt.Println("# MCA framework / component inventory (paper R3)")
	fmt.Printf("%-8s %-30s %s\n", "FRAME", "PURPOSE", "COMPONENTS")
	fmt.Printf("%-8s %-30s %v\n", "snapc", "snapshot coordination (§5.1)", snapc.NewFramework().Names())
	fmt.Printf("%-8s %-30s %v\n", "filem", "remote file management (§5.2)", filem.NewFramework().Names())
	fmt.Printf("%-8s %-30s %v\n", "crcp", "C/R coordination protocol (§5.3)", crcp.NewFramework().Names())
	fmt.Printf("%-8s %-30s %v\n", "crs", "single-process C/R (§5.4)", crs.NewFramework().Names())
	fmt.Printf("%-8s %-30s %v\n", "plm", "process launch", plm.NewFramework().Names())
	fmt.Printf("%-8s %-30s %v\n", "btl", "byte transfer layer", btl.NewFramework().Names())
	fmt.Println()
	fmt.Println("Each CRCP component implements one coordination protocol behind the")
	fmt.Println("wrapper-PML interface; swapping protocols is one --mca crcp=... flag.")
}
