// Command paperfigs regenerates the tables and figures of the paper's
// evaluation (Table 1 and Figs 1-9, 11-21), plus repo-specific extras:
// "ablations" (design-choice ablations), "regret" (the attribution layer's
// miss-taxonomy and replacement-regret-vs-OPT audit), and "hintqual" (hint
// accuracy vs speedup across profile freshness grades).
//
// Usage:
//
//	paperfigs -exp fig11              # one experiment at full scale
//	paperfigs -exp all -scale 4       # everything at quarter-length traces
//	paperfigs -exp regret -scale 8    # decision audit vs OPT, short traces
//	paperfigs -exp all -parallel 1    # serial reference run (same output)
//	paperfigs -exp hintqual -markdown # markdown tables (CI step summaries)
//	paperfigs -list
//
// Output is byte-identical at every -parallel width: experiment loops write
// indexed result slots and aggregate serially, so the pool only changes
// wall-clock time.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"thermometer/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (fig1..fig21, table1, all) or comma list")
		scale    = flag.Int("scale", 1, "divide trace lengths by this factor (1 = paper scale)")
		cbp5     = flag.Int("cbp5", 0, "limit the number of CBP-5 traces (0 = all 663)")
		ipc1     = flag.Int("ipc1", 0, "limit the number of IPC-1 traces (0 = all 50)")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool width for per-app/per-trace loops (1 = serial)")
		list     = flag.Bool("list", false, "list experiments and exit")
		markdown = flag.Bool("markdown", false, "render tables as GitHub-flavored markdown (for $GITHUB_STEP_SUMMARY)")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if args := flag.Args(); len(args) > 0 {
		fmt.Fprintf(os.Stderr, "paperfigs: unexpected arguments %q\n", args)
		os.Exit(1)
	}

	ctx := experiments.NewContext(*scale)
	ctx.CBP5Traces = *cbp5
	ctx.IPC1Traces = *ipc1
	ctx.Workers = *parallel

	var ids []string
	if *exp == "all" {
		ids = experiments.IDs()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if experiments.Registry[id] == nil {
				fmt.Fprintf(os.Stderr, "paperfigs: unknown experiment %q (try -list)\n", id)
				os.Exit(1)
			}
			ids = append(ids, id)
		}
	}

	for _, id := range ids {
		start := time.Now()
		for _, t := range ctx.Run(id) {
			if *markdown {
				t.RenderMarkdown(os.Stdout)
			} else {
				t.Render(os.Stdout)
			}
		}
		if *markdown {
			// Keep stdout pure markdown (it is redirected into the CI step
			// summary); the timing chatter goes to stderr instead.
			fmt.Fprintf(os.Stderr, "[%s took %v]\n", id, time.Since(start).Round(time.Millisecond))
		} else {
			fmt.Printf("[%s took %v]\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
}
