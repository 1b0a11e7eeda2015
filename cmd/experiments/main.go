// Command experiments regenerates the paper's tables and figures on the
// simulated substrate. With no arguments it prints everything; pass
// subcommand names to select individual experiments:
//
//	experiments [-network pizdaint|ethernet|sharedmem] [-calibrate] [-tune]
//	            [-ranks-per-node 0] [-intra sharedmem] [-congestion 1]
//	            [table1] [fig3] [seqio] [fig5] [table3] [fig6] [fig7]
//	            [fig8] [fig9] [fig10] [fig11] [fig12] [fig13] [table4]
//	            [unfavorable] [validate] [timevolume] [overlap] [algos]
//
// The -network flag selects the α-β-γ preset the timed-transport
// experiments (timevolume, overlap) execute on; both tables carry a
// CAPS (Strassen, ω = log₂7) row per core count next to the classical
// algorithms, surfacing the flops-vs-communication crossover against
// COSMA. The paper-scale figure tables (fig8–fig13, table4,
// unfavorable) are always priced at the paper's Piz Daint constants;
// -network and the flags below change only timevolume and overlap.
// -calibrate first measures the local packed kernel (matrix.Calibrate)
// and substitutes the measured γ into the preset, so the reported
// compute times are calibrated to this machine rather than assumed. -tune goes further: it autotunes
// the kernel's block sizes and micro-kernel variant (matrix.Tune) and
// derives γ from the tuned throughput instead.
//
// -ranks-per-node N (N > 0) makes the network hierarchical: groups of
// N consecutive ranks share a node, intra-node links take their α-β
// from the -intra preset, and inter-node words are scaled by the
// -congestion factor — the timed tables then reflect a cluster of
// multicore nodes rather than a flat interconnect. The comparison set
// is drawn from the name-keyed algorithm registry; "algos" lists it.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"cosma/internal/algo"
	"cosma/internal/experiments"
	"cosma/internal/machine"
	"cosma/internal/matrix"
	"cosma/internal/report"
	"cosma/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	netName := flag.String("network", "pizdaint",
		"α-β-γ network preset for timed experiments: pizdaint, ethernet or sharedmem")
	calibrate := flag.Bool("calibrate", false,
		"measure the local packed kernel and substitute its γ into the network preset")
	tune := flag.Bool("tune", false,
		"autotune the local kernel (block sizes + micro-kernel variant) and derive γ from the tuned throughput")
	ranksPerNode := flag.Int("ranks-per-node", 0,
		"make the network hierarchical: ranks per node (0 = flat)")
	intraName := flag.String("intra", "sharedmem",
		"intra-node α-β preset for -ranks-per-node: pizdaint, ethernet or sharedmem")
	congestion := flag.Float64("congestion", 1,
		"inter-node per-word congestion factor for -ranks-per-node")
	flag.Parse()
	network, err := machine.NetworkByName(*netName)
	if err != nil {
		log.Fatal(err)
	}
	if *tune {
		tp := matrix.Tune(0, 0)
		fmt.Println(tp)
		network = network.WithGamma(1 / (tp.GFlops * 1e9))
	} else if *calibrate {
		cal := matrix.Calibrate(0, 0)
		fmt.Println(cal)
		network = network.WithGamma(cal.Gamma)
	}
	if *ranksPerNode > 0 {
		intra, err := machine.NetworkByName(*intraName)
		if err != nil {
			log.Fatal(err)
		}
		network = machine.Hierarchical(intra, network, *ranksPerNode, *congestion)
	}
	all := []string{
		"table1", "fig3", "seqio", "fig5", "table3", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "table4",
		"unfavorable", "validate", "iolatency", "delta", "step",
		"timevolume", "overlap", "algos",
	}
	want := flag.Args()
	if len(want) == 0 {
		want = all
	}
	known := make(map[string]bool, len(all))
	for _, name := range all {
		known[name] = true
	}
	for _, name := range want {
		if !known[name] {
			log.Fatalf("unknown experiment %q; available: %v", name, all)
		}
		run(name, network)
	}
}

func print(tables ...*report.Table) {
	for _, t := range tables {
		fmt.Println(t.String())
	}
}

func run(name string, network machine.NetworkParams) {
	shapes := []workload.Shape{workload.Square, workload.LargeK, workload.LargeM, workload.Flat}
	regimes := []workload.Regime{workload.StrongScaling, workload.LimitedMemory, workload.ExtraMemory}
	switch name {
	case "table1":
		print(experiments.Table1())
	case "fig3":
		print(experiments.Fig3())
	case "seqio":
		print(experiments.SeqIO())
	case "fig5":
		print(experiments.Fig5())
	case "table3":
		print(experiments.Table3()...)
	case "fig6":
		for _, r := range regimes {
			print(experiments.CommVolume(workload.Square, r))
		}
	case "fig7":
		for _, r := range regimes {
			print(experiments.CommVolume(workload.LargeK, r))
		}
		// The symmetric largeM and the flat cases of Table 4's sweep.
		print(experiments.CommVolume(workload.LargeM, workload.StrongScaling))
		print(experiments.CommVolume(workload.Flat, workload.StrongScaling))
	case "fig8":
		for _, r := range regimes {
			print(experiments.PctPeak(workload.Square, r))
		}
	case "fig9":
		for _, r := range regimes {
			print(experiments.Runtime(workload.Square, r))
		}
	case "fig10":
		for _, r := range regimes {
			print(experiments.PctPeak(workload.LargeK, r))
		}
	case "fig11":
		for _, r := range regimes {
			print(experiments.Runtime(workload.LargeK, r))
		}
	case "fig12":
		print(experiments.Fig12())
	case "fig13":
		print(experiments.Fig13())
	case "table4":
		print(experiments.Table4())
	case "unfavorable":
		print(experiments.Unfavorable())
	case "validate":
		print(experiments.Validate())
	case "iolatency":
		print(experiments.IOLatency())
	case "delta":
		print(experiments.DeltaAblation())
	case "step":
		print(experiments.StepAblation())
	case "timevolume":
		print(experiments.TimeVsVolume(network))
	case "overlap":
		print(experiments.OverlapGain(network))
	case "algos":
		t := report.NewTable("registered algorithms", "name", "aliases", "in comparison set", "summary")
		for _, s := range algo.Specs() {
			t.AddRow(s.Name, strings.Join(s.Aliases, ", "), s.Comparison, s.Summary)
		}
		print(t)
	default:
		_ = shapes // exhaustively handled above
	}
}
