// Command paperbench regenerates the paper's entire evaluation section
// and runs the repository's bounded performance gates, all from one
// registry (bench.Gates). By default it runs the event graphs
// (Figs. 5-6, 8), the video player tables (Figs. 10-11), the SecComm
// table (Fig. 12), the X client table (Fig. 13), the section 1
// overhead-share claim and the section 4.2 code-size note; -gates picks
// any other list, such as -gates fig12 or -gates batch,xdomain. A
// bounded gate takes bench.Samples samples and checks its bounds on the
// per-metric medians. Use -quick for reduced op counts, -out DIR to
// write one BENCH_<gate>.json per gate, and -compare to diff two such
// reports or directories.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"eventopt/internal/bench"
)

func main() {
	var (
		quick   = flag.Bool("quick", false, "reduced op counts")
		dot     = flag.Bool("dot", false, "emit DOT for the graphs")
		gates   = flag.String("gates", bench.DefaultGates, "comma-separated gates to run")
		out     = flag.String("out", "", "write one BENCH_<gate>.json per gate to this directory")
		compare = flag.Bool("compare", false, "compare two reports or report directories (old new) and exit")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "paperbench: -compare needs exactly two arguments: old new")
			os.Exit(2)
		}
		if err := bench.CompareReports(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: compare: %v\n", err)
			os.Exit(1)
		}
		return
	}

	selected, err := bench.Select(bench.Gates(*dot), *gates)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(2)
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
	}
	failed := false
	for _, g := range selected {
		rep, err := g.Run(os.Stdout, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", g.Name, err)
			failed = true
		}
		if *out != "" {
			if err := writeReport(filepath.Join(*out, "BENCH_"+g.Name+".json"), rep); err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", g.Name, err)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

func writeReport(path string, rep *bench.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
