// Command experiments regenerates every table and figure of the
// paper's evaluation section, printing measured (virtual-time) values
// next to the published ones, plus the ablation studies of DESIGN.md.
//
// Usage:
//
//	experiments               # everything
//	experiments -table 1      # only Table 1
//	experiments -table 2      # only Table 2 (+ the §8 remote create)
//	experiments -attribution  # profile-phase latency attribution of the
//	                          # Table 2 line (second-hop delta per phase)
//	experiments -table 3      # only Table 3 / Figure 5
//	experiments -figure 2     # only the Figure 2 LPM-creation exchange
//	experiments -ablations    # only the ablations
//	experiments -metrics      # only the message-count experiments (fan-out,
//	                          # scaling vs host count, recovery cost)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ppm/internal/experiments"
)

func usage(w io.Writer) {
	fmt.Fprintf(w, "usage: experiments [-table 1|2|3] [-figure 2] [-ablations] [-metrics] [-attribution]\n")
}

// options is the validated command line.
type options struct {
	table       int
	figure      int
	ablations   bool
	metrics     bool
	attribution bool
}

// parseArgs parses and strictly validates the command line: positional
// arguments are rejected, -table and -figure must name a table or
// figure the paper has. A typo exits 2 instead of printing nothing and
// passing.
func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.IntVar(&o.table, "table", 0, "run only this table (1-3)")
	fs.IntVar(&o.figure, "figure", 0, "run only this figure (2)")
	fs.BoolVar(&o.ablations, "ablations", false, "run only the ablations")
	fs.BoolVar(&o.metrics, "metrics", false, "run only the message-count experiments")
	fs.BoolVar(&o.attribution, "attribution", false,
		"run only the profiler's latency attribution of the Table 2 line")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.table < 0 || o.table > 3 {
		return o, fmt.Errorf("-table must be 1, 2 or 3, got %d", o.table)
	}
	if o.figure != 0 && o.figure != 2 {
		return o, fmt.Errorf("-figure must be 2, got %d", o.figure)
	}
	return o, nil
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			usage(os.Stdout)
			return
		}
		fmt.Fprintln(os.Stderr, "experiments:", err)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	all := o.table == 0 && o.figure == 0 && !o.ablations && !o.metrics && !o.attribution

	if all || o.table == 1 {
		rows, err := experiments.RunTable1()
		if err != nil {
			return fmt.Errorf("table 1: %w", err)
		}
		fmt.Print(experiments.FormatTable1(rows))
		fmt.Println()
	}
	if all || o.table == 2 {
		rows, err := experiments.RunTable2()
		if err != nil {
			return fmt.Errorf("table 2: %w", err)
		}
		fmt.Print(experiments.FormatTable2(rows))
		measured, paper, err := experiments.RemoteCreateWarm()
		if err != nil {
			return fmt.Errorf("remote create: %w", err)
		}
		fmt.Printf("§8 remote create over a warm circuit: measured %.1f ms, paper %.0f ms\n\n",
			measured, paper)
	}
	if all || o.attribution {
		rows, err := experiments.RunLatencyAttribution()
		if err != nil {
			return fmt.Errorf("latency attribution: %w", err)
		}
		fmt.Print(experiments.FormatLatencyAttribution(rows))
		fmt.Println()
	}
	if all || o.table == 3 {
		rows, err := experiments.RunTable3()
		if err != nil {
			return fmt.Errorf("table 3: %w", err)
		}
		fmt.Print(experiments.FormatTable3(rows))
		fmt.Println()
	}
	if all || o.figure == 2 {
		res, err := experiments.RunFigure2()
		if err != nil {
			return fmt.Errorf("figure 2: %w", err)
		}
		fmt.Printf("Figure 2: LPM creation ab initio %.1f ms; finding an existing LPM %.1f ms\n",
			res.CreateMS, res.FindMS)
		o := experiments.RunOverhead()
		fmt.Printf("§6 overhead: untraced syscall check %.0f ns (negligible); "+
			"zero-load kernel->LPM delivery %.2f ms\n\n", o.UntracedCheckNS, o.TracedDeliveryMS)
	}
	if all || o.ablations {
		fmt.Println("Ablations (design choices, DESIGN.md §6)")
		reuseMS, forkMS, reuseForks, noReuseForks, err := experiments.AblationHandlerReuse()
		if err != nil {
			return fmt.Errorf("handler ablation: %w", err)
		}
		fmt.Printf("  handler reuse: %.1f ms/op (%d forks) vs fork-per-request %.1f ms/op (%d forks)\n",
			reuseMS, reuseForks, forkMS, noReuseForks)
		circuitMS, datagramMS, err := experiments.AblationCircuitVsDatagramAuth()
		if err != nil {
			return fmt.Errorf("auth ablation: %w", err)
		}
		fmt.Printf("  auth-once circuits: %.1f ms/op vs per-message auth %.1f ms/op\n",
			circuitMS, datagramMS)
		onDemand, fullMesh, err := experiments.AblationOnDemandVsFullMesh(6)
		if err != nil {
			return fmt.Errorf("mesh ablation: %w", err)
		}
		fmt.Printf("  circuits on 6 hosts (2 active): on-demand %d vs full mesh %d\n",
			onDemand, fullMesh)
		points, err := experiments.AblationDedupWindow([]time.Duration{
			time.Millisecond, time.Second, time.Minute,
		})
		if err != nil {
			return fmt.Errorf("dedup ablation: %w", err)
		}
		for _, p := range points {
			fmt.Printf("  dedup window %8v: %d duplicate snapshot records, %d suppressed floods\n",
				p.Window, p.DuplicateRecs, p.Suppressed)
		}
		relayFirst, directFirst, relaySteady, directSteady, err := experiments.AblationRelayVsDirect()
		if err != nil {
			return fmt.Errorf("relay ablation: %w", err)
		}
		fmt.Printf("  routing to a distant host: first op relay %.1f ms vs direct+setup %.1f ms;\n"+
			"                             steady state relay %.1f ms vs direct %.1f ms\n",
			relayFirst, directFirst, relaySteady, directSteady)
		fmt.Println()
	}
	if all || o.metrics {
		rows, err := experiments.RunBroadcastFanout(nil)
		if err != nil {
			return fmt.Errorf("fanout: %w", err)
		}
		fmt.Print(experiments.FormatFanout(rows))
		fmt.Println()
		scaling, err := experiments.RunScaling(nil)
		if err != nil {
			return fmt.Errorf("scaling: %w", err)
		}
		fmt.Print(experiments.FormatScaling(scaling))
		fmt.Println()
		rec, err := experiments.RunRecoveryCost()
		if err != nil {
			return fmt.Errorf("recovery cost: %w", err)
		}
		fmt.Print(experiments.FormatRecoveryCost(rec))
	}
	return nil
}
